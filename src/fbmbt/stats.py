"""Monte Carlo harness and distribution-comparison statistics."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed


def kolmogorov_tail(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution, from its two theta series:
    1 - sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2)) for x < 1, and
    2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) for x >= 1."""
    if x < 0.1:  # the tail rounds to 1.0 (first term < 1e-51), and x^2 may underflow
        return 1.0
    k = np.arange(1, 9)  # the ninth term of either series is below 1e-70
    if x < 1.0:
        terms = np.exp(-(((2 * k - 1) * math.pi) ** 2) / (8.0 * x * x))
        return float(1.0 - math.sqrt(2.0 * math.pi) / x * np.sum(terms))
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * x) ** 2)))


@dataclass(frozen=True)
class TwoSampleResult:
    """Two-sample comparison: statistic and asymptotic p-value."""

    statistic: float
    p_value: float


def ks_two_sample(a, b) -> TwoSampleResult:
    """Exact two-sample Kolmogorov-Smirnov sup distance with the asymptotic
    Kolmogorov p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, pooled, side="right") / n1
    cdf2 = np.searchsorted(b, pooled, side="right") / n2
    stat = float(np.max(np.abs(cdf1 - cdf2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    p = kolmogorov_tail(en * stat)
    return TwoSampleResult(statistic=stat, p_value=p)


# A rate fit of fewer levels has no residual to judge the straight line by.
MIN_FIT_LEVELS = 3


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log2(value) against the level n."""

    slope: float
    r_squared: float


def fit_rate(levels, values) -> RateFit:
    """OLS of log2(values) on levels; values must be positive, at least
    ``MIN_FIT_LEVELS`` points."""
    levels_arr = np.asarray(levels, dtype=np.float64)
    values_arr = np.asarray(values, dtype=np.float64)
    if len(levels_arr) < MIN_FIT_LEVELS:
        raise ValueError(
            f"rate fit needs >= {MIN_FIT_LEVELS} levels, got {len(levels_arr)}"
        )
    if len(levels_arr) != len(values_arr):
        raise ValueError("levels and values must have equal length")
    if np.any(values_arr <= 0):
        raise ValueError("rate fit requires strictly positive values")
    logs = np.log2(values_arr)
    slope, intercept = np.polyfit(levels_arr, logs, 1)
    resid = logs - (slope * levels_arr + intercept)
    total = logs - logs.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), r_squared=r2)


def replication_seeds(replications: int, master_seed: int) -> list[int]:
    """Per-replication seeds; independent of execution order and worker count."""
    return [derive_seed(master_seed, i) for i in range(replications)]


def mc_run(estimator, replications: int, master_seed: int, workers: int = 1):
    """Run ``estimator(seeds)`` on the derived replication seeds.

    An estimator takes a list of seeds and returns one value per seed, in
    order, each equal to the value its seed gives alone.  Serially it gets
    every seed in one call; a pool hands each worker one task, a chunk of
    consecutive seeds, so a block estimator sees blocks as large as it
    can.  Returns (values, seeds) with values in replication order
    regardless of ``workers``, so parallel and serial runs are bit-identical.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    seeds = replication_seeds(replications, master_seed)
    if workers <= 1:
        values = list(estimator(seeds))
    else:
        from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
        # The fork start method launches every worker at once, so no more
        # are asked for than there are CPUs or seeds.
        workers = min(workers, os.cpu_count() or 1, replications)
        chunk = -(-replications // workers)
        blocks = [seeds[i : i + chunk] for i in range(0, replications, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = [v for block in pool.map(estimator, blocks) for v in block]
    if len(values) != replications:
        raise RuntimeError(
            f"estimator returned {len(values)} values for {replications} seeds"
        )
    return np.asarray(values, dtype=np.float64), seeds
