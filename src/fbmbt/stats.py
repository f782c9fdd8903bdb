"""Monte Carlo harness and distribution-comparison statistics."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .rng import derive_seed


@dataclass(frozen=True)
class TwoSampleResult:
    """Two-sample comparison: statistic, asymptotic p-value, sample sizes."""

    statistic: float
    p_value: float
    n1: int
    n2: int
    small_sample: bool


def ks_two_sample(a, b) -> TwoSampleResult:
    """Exact two-sample Kolmogorov-Smirnov sup distance with the asymptotic
    Kolmogorov p-value; flagged when either sample has fewer than 50 points."""
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
    p = float(kolmogorov(en * stat))
    return TwoSampleResult(
        statistic=stat, p_value=p, n1=n1, n2=n2,
        small_sample=min(n1, n2) < 50,
    )


# A rate fit of fewer levels has no residual to judge the straight line by.
MIN_FIT_LEVELS = 3


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log2(value) against the level n."""

    slope: float
    intercept: float
    r_squared: float
    levels: tuple[int, ...]


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
    return RateFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2,
        levels=tuple(int(n) for n in levels),
    )


def replication_seeds(replications: int, master_seed: int) -> list[int]:
    """Per-replication seeds; independent of execution order and worker count."""
    return [derive_seed(master_seed, i) for i in range(replications)]


def mc_run(estimator, replications: int, master_seed: int, workers: int = 1):
    """Run ``estimator(seed)`` for each derived replication seed.

    Returns (values, seeds) with values in replication order regardless of
    ``workers``, so parallel and serial runs are bit-identical.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    seeds = replication_seeds(replications, master_seed)
    if workers <= 1:
        values = [estimator(s) for s in seeds]
    else:
        chunk = max(1, replications // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(estimator, seeds, chunksize=chunk))
    return np.asarray(values, dtype=np.float64), seeds
