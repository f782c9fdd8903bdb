"""Simulation and verification toolkit for 2D fractional Brownian motion in
Brownian time: exact fBm grid sampling, random-walk skeletons, weighted power
variations, the H = 1/6 limiting-law samplers, and the statistical harness
that turns the asymptotic statements into reproducible pass/fail experiments.
"""

import os
import sys

# Every matrix product fbmbt runs is integer or a few elements long, so
# OpenBLAS's worker threads would only spin idle: ~0.1 s of a core after
# numpy loads, in each process and each forked pool worker.  When fbmbt is
# what loads numpy, and the caller has not chosen a thread count, numpy loads
# with one BLAS thread (OpenBLAS reads the count once, at load); the
# environment is left as it was.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy
    del os.environ["OPENBLAS_NUM_THREADS"]

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
    rho,
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
    WalkBits,
    crossings_bruteforce,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_position,
    walk_bits,
    walk_positions,
)
from .stats import RateFit, TwoSampleResult, fit_rate, ks_two_sample, mc_run

__version__ = "0.1.0"
