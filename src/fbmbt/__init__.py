"""Simulation and verification toolkit for 2D fractional Brownian motion in
Brownian time: exact fBm grid sampling, random-walk skeletons, weighted power
variations, the H = 1/6 limiting-law samplers, and the statistical harness
that turns the asymptotic statements into reproducible pass/fail experiments.
"""

from .calculus import (
    Function2D,
    function_names,
    get_test_function,
    hermite_eval,
    hermite_expand,
    midpoint_taylor_table,
)
from .fgn import (
    CapacityError,
    FbmGridPath2D,
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
)
from .rng import derive_seed, generator, splitmix64
from .skeleton import (
    SkeletonPath,
    WalkBits,
    crossings_bruteforce,
    sample_skeleton,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_position,
    terminal_y,
    walk_bits,
)
from .stats import RateFit, TwoSampleResult, fit_rate, ks_two_sample, mc_run

__version__ = "0.1.0"
