"""Experiment drivers: one function per named experiment.

Each driver returns an ``ExperimentResult`` holding per-level estimates,
named test verdicts, fitted rates, and the raw per-replication values.  The
command-line runner serializes these; the acceptance test suite asserts on
the verdicts directly.  All thresholds live in the ``THRESHOLDS`` table so
they are pinned in exactly one place, and each kind of verdict is decided by
one method: ``add_variance`` (a sample variance against its limit), ``add_ks``
(a two-sample law match) and ``add_near`` (a number near a pinned constant).

Estimator functions take a list of replication seeds plus keyword
configuration, return one value per seed, and are defined at module top
level so they can be shipped to worker processes.  Every fBm estimator
draws its paths as ragged rows of ``fgn._path_draws``, each a seed's fBm on
a grid range that contains 0, which runs the estimator's kernel once per
fGn chunk of rows and draws only the components that
``variations._components_read`` finds the kernel's terms read.  An odd
one-sided sum on the negative side is the sign of j* times the sum read
forward along the row, with no mirrored copy of the row.
Runner keywords are the config keys, so a runner's ``function`` is passed
on to the draws as their ``fname``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .calculus import get_test_function, midpoint_taylor_table, test_function_names
from .fgn import (
    H_SPECIAL,
    _path_draws,
    grid_spacing,
    rho,
    sample_fbm_2d,
    sum_rho_cubed,
)
from .limitlaw import (
    default_kappas,
    kappa_constants,
    sample_change_of_variable_rhs,
    sample_correction_fbm,
)
from .rng import derive_seed
from .skeleton import (
    crossings_bruteforce,
    sample_skeleton,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_y,
)
from .stats import fit_rate, ks_two_sample, mc_run
from .variations import (
    _VALUE,
    _check_exponents,
    _components_read,
    _fsum_rows,
    _grid_count,
    _power_sum,
    _step_count,
    _taylor_sum,
    _taylor_terms,
    k_components,
    kl_reduce,
    p_n,
    v3,
    v_pq,
    v_pq_hermite,
    v_tilde_pq,
    w_pq,
)

# Every numeric pass/fail threshold used by the experiments.
THRESHOLDS = {
    "telescoping_abs": 1e-12,
    "series_value": (0.89853, 5e-4),
    "series_tail": 1e-6,
    "sqrt_6s": (2.322, 5e-3),
    "kappa1": (0.0967, 5e-4),
    "kappa3": (0.1676, 5e-4),
    "identity_rel": 1e-10,
    "decay_slope_max": -0.25,
    "variance_rel_fbm": 0.10,
    "variance_rel_fbmbt": 0.12,
    "ks_v3_correction": 0.08,
    "ks_otilde_rhs": 0.10,
    "divergence_slope": (0.20, 0.10),
    "normalized_slope_abs": 0.08,
    "terminal_var_rel": 0.05,
    "modulus_constant": 2.0,
}

DEFAULT_MESH = 2.0**-10
TELESCOPING_HURSTS = (0.1, H_SPECIAL, 0.3, 0.49)
TELESCOPING_TRUNCATIONS = (10, 10**3, 10**6)


@dataclass
class ExperimentResult:
    series_constants: dict = field(default_factory=dict)
    per_level: list = field(default_factory=list)
    tests: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    raw: list = field(default_factory=list)

    def add_test(self, name: str, statistic: float, verdict: bool, p_value=None):
        self.tests.append(
            {
                "name": name,
                "statistic": float(statistic),
                "p_value": None if p_value is None else float(p_value),
                "verdict": bool(verdict),
            }
        )

    def add_variance(self, name: str, values, target: float, key: str):
        """Sample variance of ``values`` against ``target``, within the
        relative tolerance ``THRESHOLDS[key]``; the statistic is their ratio."""
        var = float(np.var(values, ddof=1))
        self.add_test(name, var / target, abs(var - target) <= THRESHOLDS[key] * target)

    def add_ks(self, name: str, lhs, rhs):
        """Two-sample KS law match, its distance below ``THRESHOLDS[name]``."""
        ks = ks_two_sample(lhs, rhs)
        self.add_test(name, ks.statistic, ks.statistic < THRESHOLDS[name], p_value=ks.p_value)

    def add_near(self, name: str, statistic: float, key: str):
        """``statistic`` within ``tol`` of ``center``; ``THRESHOLDS[key]`` is both."""
        center, tol = THRESHOLDS[key]
        self.add_test(name, statistic, abs(statistic - center) <= tol)

    def add_level(self, n: int, values: np.ndarray):
        mean = float(np.mean(values))
        var = float(np.var(values, ddof=1)) if len(values) > 1 else 0.0
        self.per_level.append(
            {
                "n": int(n),
                "mean": mean,
                "variance": var,
                "stderr": math.sqrt(var / len(values)) if len(values) > 1 else 0.0,
                "count": int(len(values)),
            }
        )

    def add_rate(self, name: str, levels, values) -> float:
        """Fit log2(values) on the levels, record the fit and return its slope."""
        fit = fit_rate(levels, values)
        self.rates.append({"name": name, "slope": fit.slope, "r_squared": fit.r_squared})
        return fit.slope

    def add_raw(self, statistic: str, values, seeds):
        for i, (v, s) in enumerate(zip(values, seeds)):
            self.raw.append((i, int(s), statistic, float(v)))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _level_master(master_seed: int, tag: int) -> int:
    """Independent master seed for one sub-experiment of a run."""
    return derive_seed(master_seed, 0x10000 + tag)


# ---------------------------------------------------------------------------
# Estimators (top-level and picklable).  Each takes a list of replication
# seeds and returns one value per seed, in seed order, equal to the value its
# seed gives alone.  Every fBm estimator reads its paths as the rows of
# ``fgn._path_draws``: the seeds whose paths pad to one power of two are rows
# of one fGn draw, and the midpoint kernel runs once per chunk of rows.


# On the fixed clock every path runs over [0, m], m = floor(2^{n/2} t).


def draw_v_pq(seeds, *, H, n, t, fname, p, q):
    f, (p, q) = get_test_function(fname), _check_exponents(p, q)
    return _path_draws(H, n, [(0, _grid_count(n, t))] * len(seeds), seeds,
                       lambda v1, v2, _: _power_sum(f, v1, v2, p, q),
                       reads=_components_read(f, [(_VALUE, (p, q))]))


def draw_v3(seeds, *, H, n, t, fname):
    f = get_test_function(fname)
    return _path_draws(H, n, [(0, _grid_count(n, t))] * len(seeds), seeds,
                       lambda v1, v2, _: _taylor_sum(f, v1, v2, 3),
                       reads=_components_read(f, _taylor_terms(3)))


# Brownian-clock estimators.  For odd-order sums the up- and downcrossings
# of each edge cancel, so a skeleton sum depends on the walk only through its
# terminal position j*: it equals the one-sided sum out to y = j* 2^{-n/2},
# which is sign(j*) times the sum read forward along the fBm segment on
# [min(0, j*), max(0, j*)].  Reading that segment from 0 toward j* instead
# negates every increment and leaves every midpoint, so each term of an
# odd-order sum flips sign exactly, and so does its correctly rounded sum.
# Only j* is drawn, never the walk, and each seed's sum has its own length
# |j*|, so the rows are ragged: each sums its own first |j*| terms.


def _one_sided_draws(seeds, H, n, t, fname, order, residual=False) -> np.ndarray:
    """The order-``order`` one-sided midpoint sum on the fBm segment between
    0 and each seed's terminal position j*; with ``residual``, f(X at j*) -
    f(0, 0) minus that sum, which also reads f at the end.  Every j* is
    drawn first, then the segments of all seeds as ragged rows."""
    f, steps = get_test_function(fname), _step_count(n, t)
    terms = _taylor_terms(order) + ([(_VALUE, (0, 0))] if residual else [])
    j_stars = [sample_terminal(n, steps, seed) for seed in seeds]

    def sums(v1, v2, ranges):
        lo, hi = ranges.T
        # Adding 0.0 makes a zero sum +0.0 whatever the sign.
        out = np.sign(lo + hi) * _taylor_sum(f, v1, v2, order, hi - lo) + 0.0
        if residual:  # X at j* is in column j* - lo = hi
            end = np.arange(len(hi)), hi
            out = f(v1[end], v2[end]) - float(f(0.0, 0.0)) - out
        return out

    return _path_draws(H, n, [(min(0, j), max(0, j)) for j in j_stars], seeds, sums,
                       reads=_components_read(f, terms))


def draw_o_tilde(seeds, *, H, n, t, fname):
    return _one_sided_draws(seeds, H, n, t, fname, 1)


def draw_v_tilde_3(seeds, *, H, n, t, fname):
    return _one_sided_draws(seeds, H, n, t, fname, 3)


def draw_skeleton_residual(seeds, *, H, n, t, fname):
    """f(X at j*) - f(0, 0) - the gradient sum out to y = j* 2^{-n/2}."""
    return _one_sided_draws(seeds, H, n, t, fname, 1, residual=True)


def draw_terminal_y(seeds, *, n, t):
    return [sample_terminal(n, _step_count(n, t), seed) * grid_spacing(n) for seed in seeds]


def draw_w3_horizons(seeds, *, H, n, ys, fname):
    """The one-sided third-order sum out to each y in ``ys``, all on one
    two-sided fBm path per seed, its row on [-m, m]: one row per seed.  Each
    y reads k = floor(2^{n/2} |y|) increments from X_0 at column m in one
    ``_taylor_sum``: columns m..m+k for y > 0, and for y < 0 minus the
    forward sum on columns m-k..m, as in ``_one_sided_draws``; y = 0 is 0.0."""
    m = _grid_count(n, max(abs(y) for y in ys))
    f = get_test_function(fname)

    def sums(v1, v2):
        out = np.zeros((len(v1), len(ys)))
        for i, y in enumerate(ys):
            k = _grid_count(n, abs(y))
            if y > 0:
                out[:, i] = _taylor_sum(f, v1[:, m : m + k + 1], v2[:, m : m + k + 1], 3)
            elif y < 0:
                out[:, i] = -_taylor_sum(f, v1[:, m - k : m + 1], v2[:, m - k : m + 1], 3) + 0.0
        return out

    return _path_draws(H, n, [(-m, m)] * len(seeds), seeds,
                       lambda v1, v2, _: sums(v1, v2), len(ys),
                       reads=_components_read(f, _taylor_terms(3)))


def draw_correction_fbm(seeds, *, fname, t, mesh):
    return sample_correction_fbm(get_test_function(fname), t, mesh, seeds)


def draw_rhs_fbmbt(seeds, *, fname, t, mesh):
    """The Euler grids of Brownian times that pad to one power of two are
    drawn as one block."""
    return sample_change_of_variable_rhs(get_test_function(fname), t, mesh, seeds)


# ---------------------------------------------------------------------------
# Experiments


def run_rho_table() -> ExperimentResult:
    """Telescoping check: sum_{|r|<=m} rho(r) = (m+1)^{2H} - m^{2H}."""
    res = ExperimentResult()
    tol = THRESHOLDS["telescoping_abs"]
    for H in TELESCOPING_HURSTS:
        for m in TELESCOPING_TRUNCATIONS:
            total = 1.0 + 2.0 * _fsum_rows(rho(np.arange(1, m + 1), H))
            # stable form of (m+1)^{2H} - m^{2H}
            target = float(m) ** (2 * H) * math.expm1(2 * H * math.log1p(1.0 / m))
            err = abs(total - target)
            res.add_test(f"telescoping_H{H:.6g}_m{m}", err, err <= tol)
    return res


def run_constants() -> ExperimentResult:
    """Certified series constant S and the kappa weights derived from it."""
    res = ExperimentResult()
    series = sum_rho_cubed(H_SPECIAL, 10**6)
    kap = kappa_constants(series)
    res.series_constants = {
        "S": series.partial_sum,
        "tail_bound": series.tail_bound,
        "truncation": series.m,
        "kappa1": kap.kappa1,
        "kappa2": kap.kappa2,
        "kappa3": kap.kappa3,
        "kappa4": kap.kappa4,
    }
    res.add_near("series_value", series.partial_sum, "series_value")
    res.add_test(
        "series_tail_bound", series.tail_bound,
        series.tail_bound < THRESHOLDS["series_tail"],
    )
    res.add_near("sqrt_6S", math.sqrt(6.0 * series.partial_sum), "sqrt_6s")
    res.add_near("kappa1", kap.kappa1, "kappa1")
    res.add_near("kappa3", kap.kappa3, "kappa3")
    return res


def run_taylor_table() -> ExperimentResult:
    """Midpoint Taylor coefficients: documented rationals, even orders vanish."""
    res = ExperimentResult()
    table = midpoint_taylor_table(12)
    expected = {
        (1, 0): Fraction(1),
        (0, 1): Fraction(1),
        (3, 0): Fraction(1, 24),
        (0, 3): Fraction(1, 24),
        (1, 2): Fraction(1, 8),
        (2, 1): Fraction(1, 8),
    }
    for key, want in expected.items():
        got = table[key]
        res.add_test(f"coeff_{key[0]}{key[1]}", float(got), got == want)
    even_ok = all(
        table[a1, a2] == 0
        for k in range(2, 13, 2)
        for a1 in range(k + 1)
        for a2 in [k - a1]
    )
    res.add_test("even_orders_vanish", 0.0 if even_ok else 1.0, even_ok)
    return res


# The exact identities, in the order ``_identity_instance`` returns them.
_IDENTITIES = ("crossings", "kl_reduce", "one_sided", "chaos_split", "hermite")
# Judged by equality with 0.0.  Crossing counts are integers.  Walking an
# edge backward negates its increment exactly and keeps its midpoint, so the
# terms of an odd-order skeleton sum cancel or flip sign exactly, and its
# one-sided forms are the same correctly rounded float.
_EXACT_IDENTITIES = {"crossings", "kl_reduce", "one_sided"}


def _identity_instances(seeds: list[int], fnames: list[str]) -> list[tuple[float, ...]]:
    """``_identity_instance`` on each seed."""
    return [_identity_instance(seed, fnames) for seed in seeds]


def _identity_instance(seed: int, fnames: list[str]) -> tuple[float, ...]:
    """Max relative deviation of each exact identity on one random instance,
    in ``_IDENTITIES`` order."""
    rng = np.random.default_rng(seed)
    steps = 1 << int(rng.integers(4, 21))
    horizon = int(rng.integers(0, steps + 1))
    H = float(rng.uniform(0.05, 0.48))
    n = int(rng.integers(4, 13))
    t = float(rng.uniform(0.2, 1.5))
    f = get_test_function(fnames[int(rng.integers(0, len(fnames)))])
    p, q = [(1, 0), (0, 1), (3, 0), (0, 3), (1, 2), (2, 1), (5, 0), (2, 3)][
        int(rng.integers(0, 8))
    ]
    # (a) reads the first ``horizon`` steps of the walk and (b), (c) the
    # first m.  A shorter walk is a prefix of a longer one on the same
    # stream, so one walk of the longer length serves both.
    m = _step_count(n, t)
    walk = sample_skeleton(n, max(horizon, m), seed)

    # (a) crossing counts: brute force vs closed form, integer exact.  The
    # count reads the positions only, never the level.
    brute = crossings_bruteforce(walk, horizon).signed()
    closed = signed_crossings_closed_form(walk, horizon)
    crossings = 0.0 if brute == closed else 1.0

    # (b), (c): skeleton sum vs crossing reduction vs one-sided form.
    visited = walk.positions[: m + 1]
    fbm = sample_fbm_2d(H, n, int(visited.min()), int(visited.max()), seed)
    vt = v_tilde_pq(f, fbm, walk, t, p, q)
    red = kl_reduce(f, fbm, walk, t, p, q)
    wv = w_pq(f, fbm, terminal_y(walk, m), p, q)

    # (d): third-order sum = chaos components + trace remainder at H = 1/6.
    path6 = sample_fbm_2d(H_SPECIAL, n, 0, _grid_count(n, t), seed)
    lhs = v3(f, path6, t)
    rhs = math.fsum(k_components(f, path6, t)) + p_n(f, path6, t)

    # (e): direct powers vs Hermite-rebuilt powers.
    path = sample_fbm_2d(H, n, 0, _grid_count(n, t), seed)
    direct = v_pq(f, path, t, p, q)
    herm = v_pq_hermite(f, path, t, p, q)
    return (crossings, _rel_err(vt, red), _rel_err(vt, wv), _rel_err(lhs, rhs),
            _rel_err(direct, herm))


def run_identity_suite(replications=1000, master_seed=0, workers=1) -> ExperimentResult:
    res = ExperimentResult()
    devs, seeds = mc_run(
        partial(_identity_instances, fnames=test_function_names()),
        replications, master_seed, workers,
    )
    for i, seed in enumerate(seeds):
        for name, d in zip(_IDENTITIES, devs[i]):
            res.raw.append((i, seed, f"identity_{name}", float(d)))
    tol = THRESHOLDS["identity_rel"]
    for name, d in sorted(zip(_IDENTITIES, devs.max(axis=0))):
        res.add_test(f"identity_{name}", d, d == 0.0 if name in _EXACT_IDENTITIES else d <= tol)
    return res


def _draw(res: ExperimentResult, label: str, estimator, replications: int,
          master_seed: int, tag: int, workers: int, scale: float = 1.0) -> np.ndarray:
    """The draws of sub-experiment ``tag``, times ``scale``; records them as
    raw values under ``label``."""
    values, seeds = mc_run(estimator, replications, _level_master(master_seed, tag), workers)
    values = values * scale
    res.add_raw(label, values, seeds)
    return values


def _level_draws(
    res: ExperimentResult,
    label: str,
    estimator,
    levels,
    replications: int,
    master_seed: int,
    tag: int,
    workers: int,
    scale=lambda n: 1.0,
) -> list[np.ndarray]:
    """Each level's draws, times ``scale(n)``; records the raw draws and the
    per-level summaries of their squares."""
    draws = []
    for n in levels:
        values = _draw(res, f"{label}_n{n}", partial(estimator, n=n), replications,
                       master_seed, tag * 100 + n, workers, scale(n))
        res.add_level(n, values**2)
        draws.append(values)
    return draws


def run_converge_h_gt(
    replications=2000, master_seed=0, workers=1, H=0.3, t=1.0,
    function="sin_x_cos_y", levels=(8, 10, 12, 14, 16, 18), p=1, q=2,
) -> ExperimentResult:
    """H > 1/6: weighted variation and skeleton residual decay in L2."""
    res = ExperimentResult()
    levels = tuple(levels)
    v_means = [float(np.mean(v**2)) for v in _level_draws(
        res, "v_pq",
        partial(draw_v_pq, H=H, t=t, fname=function, p=p, q=q),
        levels, replications, master_seed, 1, workers,
    )]
    slope = res.add_rate("v_pq_second_moment", levels, v_means)
    res.add_test("v_pq_slope", slope, slope <= THRESHOLDS["decay_slope_max"])
    res.add_test(
        "v_pq_endpoint_drop", v_means[-1] / v_means[0],
        v_means[-1] < 0.25 * v_means[0],
    )
    r_means = [float(np.mean(v**2)) for v in _level_draws(
        res, "residual",
        partial(draw_skeleton_residual, H=H, t=t, fname=function),
        levels, replications, master_seed, 2, workers,
    )]
    slope = res.add_rate("residual_second_moment", levels, r_means)
    decreasing = all(b < a for a, b in zip(r_means, r_means[1:]))
    res.add_test("residual_decreasing", float(decreasing), decreasing)
    res.add_test("residual_slope", slope, slope < 0.0)
    return res


def run_law_h_eq(
    replications=2000, master_seed=0, workers=1, t=1.0, n=20,
    mesh=DEFAULT_MESH, ks_replications=1500, mixture_replications=4000,
    modulus_levels=(10, 14, 18), modulus_replications=400,
) -> ExperimentResult:
    """H = 1/6: limiting variances, law matches, and the modulus bound."""
    res = ExperimentResult()
    kap = default_kappas()
    s = kap.series.partial_sum
    res.series_constants = {
        "S": s, "tail_bound": kap.series.tail_bound,
        "kappa1": kap.kappa1, "kappa3": kap.kappa3,
    }
    draw = partial(_draw, res, master_seed=master_seed, workers=workers)

    # Variance of the third-order sum, f = x^3 -> 36 kappa1^2 t.
    v3_x3 = draw("v3_x3", partial(draw_v3, H=H_SPECIAL, n=n, t=t, fname="x^3"),
                 replications, tag=10)
    res.add_variance("var_v3_x3", v3_x3, 36.0 * kap.kappa1**2 * t, "variance_rel_fbm")

    # f = x y^2 -> 4 kappa3^2 t.
    v3_xy2 = draw("v3_xy2", partial(draw_v3, H=H_SPECIAL, n=n, t=t, fname="x*y^2"),
                  replications, tag=11)
    res.add_variance("var_v3_xy2", v3_xy2, 4.0 * kap.kappa3**2 * t, "variance_rel_fbm")

    # Brownian-time version, f = x^3 -> 36 kappa1^2 sqrt(2t/pi).  The random
    # Brownian time makes this a variance mixture with fatter tails, so it
    # gets a larger replication budget than the fixed-clock checks.
    vt3 = draw("v_tilde3_x3", partial(draw_v_tilde_3, H=H_SPECIAL, n=n, t=t, fname="x^3"),
               mixture_replications, tag=12)
    target = 36.0 * kap.kappa1**2 * math.sqrt(2.0 * t / math.pi)
    res.add_variance("var_v_tilde3_x3", vt3, target, "variance_rel_fbmbt")

    # Law match: V3 draws against the limiting correction integral.
    lhs = draw("ks_v3_x3", partial(draw_v3, H=H_SPECIAL, n=n, t=t, fname="x^3"),
               ks_replications, tag=13)
    rhs = draw("ks_correction_fbm", partial(draw_correction_fbm, fname="x^3", t=t, mesh=mesh),
               ks_replications, tag=14)
    res.add_ks("ks_v3_correction", lhs, rhs)

    # Law match on the Brownian clock: the gradient sum against
    # f(endpoint) - f(0) - correction.
    lhs = draw("ks_o_tilde",
               partial(draw_o_tilde, H=H_SPECIAL, n=n, t=t, fname="sin_x_cos_y"),
               ks_replications, tag=15)
    rhs = draw("ks_rhs_fbmbt", partial(draw_rhs_fbmbt, fname="sin_x_cos_y", t=t, mesh=mesh),
               ks_replications, tag=16)
    res.add_ks("ks_otilde_rhs", lhs, rhs)

    # Modulus bound: mean-square increment of the one-sided third-order sum
    # over a signed-horizon grid, against max(|s|,|t|)^{1/3} (2^{-n/2}+|t-s|),
    # on every pair s != t: off the diagonal, where the bound at s = t = 0 is 0.
    ts = (-1.0, -0.5, 0.0, 0.5, 1.0)
    y, off = np.array(ts), ~np.eye(len(ts), dtype=bool)
    worst = 0.0
    for lev in modulus_levels:
        rows, _ = mc_run(
            partial(draw_w3_horizons, H=H_SPECIAL, n=lev, ys=ts, fname="sin_x_cos_y"),
            modulus_replications, _level_master(master_seed, 17 * 100 + lev), workers,
        )
        acc = ((rows[:, :, None] - rows[:, None, :]) ** 2).sum(axis=0) / modulus_replications
        bound = np.maximum.outer(abs(y), abs(y)) ** (1.0 / 3.0) * (
            2.0 ** (-lev / 2.0) + abs(y[:, None] - y[None, :])
        )
        worst = max(worst, float((acc[off] / bound[off]).max()))
    res.add_test("modulus_ratio", worst, worst < THRESHOLDS["modulus_constant"])
    return res


def run_diverge_h_lt(
    replications=1000, master_seed=0, workers=1, H=0.1, t=1.0,
    function="x^3", levels=(10, 12, 14, 16, 18, 20), fbmbt_replications=600,
) -> ExperimentResult:
    """H < 1/6: variance growth rate and the normalizing exponent."""
    res = ExperimentResult()
    levels = tuple(levels)
    v_vars = [float(np.var(v, ddof=1)) for v in _level_draws(
        res, "v3", partial(draw_v3, H=H, t=t, fname=function),
        levels, replications, master_seed, 1, workers,
    )]
    slope = res.add_rate("v3_variance", levels, v_vars)
    res.add_near("v3_variance_slope", slope, "divergence_slope")

    norm_vars = [float(np.var(v, ddof=1)) for v in _level_draws(
        res, "v_tilde3_norm", partial(draw_v_tilde_3, H=H, t=t, fname=function),
        levels, fbmbt_replications, master_seed, 2, workers,
        scale=lambda n: 2.0 ** (-n * (1.0 - 6.0 * H) / 4.0),
    )]
    slope = res.add_rate("v_tilde3_normalized_variance", levels, norm_vars)
    res.add_test(
        "v_tilde3_normalized_slope", slope,
        abs(slope) <= THRESHOLDS["normalized_slope_abs"],
    )
    return res


def run_skeleton_suite(
    replications=10**4, master_seed=0, workers=1, n=16, t=1.0
) -> ExperimentResult:
    """Variance of the walk terminal value matches the Brownian time."""
    res = ExperimentResult()
    values = _draw(res, "terminal_y", partial(draw_terminal_y, n=n, t=t),
                   replications, master_seed, 1, workers)
    res.add_level(n, values)
    target = _step_count(n, t) * 2.0**-n
    res.add_variance("terminal_variance", values, target, "terminal_var_rel")
    return res


RUNNERS = {
    "rho-table": run_rho_table,
    "constants": run_constants,
    "taylor-table": run_taylor_table,
    "identity-suite": run_identity_suite,
    "converge-h-gt": run_converge_h_gt,
    "law-h-eq": run_law_h_eq,
    "diverge-h-lt": run_diverge_h_lt,
    "skeleton-suite": run_skeleton_suite,
}
