"""Simulation and verification toolkit for 2D fractional Brownian motion in
Brownian time: exact fBm grid sampling, random-walk skeletons, weighted power
variations, the H = 1/6 limiting-law samplers, and the statistical harness
that turns the asymptotic statements into reproducible pass/fail experiments.
"""

from .calculus import (
    TestFunction2D,
    get_test_function,
    hermite_eval,
    hermite_expand,
    midpoint_taylor_table,
    test_function_names,
)
from .fgn import (
    CapacityError,
    FbmGridPath2D,
    cov_fbm,
    increment_cov_matrix,
    rho,
    sample_fbm_2d,
    sample_increments,
    sum_rho_cubed,
)
from .limitlaw import (
    KappaConstants,
    default_kappas,
    kappa_constants,
    sample_change_of_variable_rhs,
    sample_correction_fbm,
    sample_correction_fbmbt,
)
from .rng import derive_seed, generator, splitmix64
from .skeleton import (
    CrossingTable,
    SkeletonPath,
    crossings_bruteforce,
    sample_skeleton,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_y,
)
from .stats import RateFit, TwoSampleResult, fit_rate, ks_two_sample, mc_run
from .variations import (
    VariationStatistic,
    k_components,
    kl_reduce,
    o_n,
    o_tilde_n,
    o_tilde_reduced,
    p_n,
    v3,
    v_pq,
    v_pq_hermite,
    v_tilde_3,
    v_tilde_3_reduced,
    v_tilde_pq,
    w3,
    w_grad,
    w_pq,
)

__version__ = "0.1.0"
