"""Experiment drivers: one function per named experiment.

Each driver returns an ``ExperimentResult`` holding per-level estimates,
named test verdicts, fitted rates, and the raw per-replication values.  The
command-line runner serializes these; the acceptance test suite asserts on
the verdicts directly.  All thresholds live in the ``THRESHOLDS`` table so
they are pinned in exactly one place.

Estimator functions take a single replication seed plus keyword
configuration and are defined at module top level so they can be shipped to
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .calculus import get_test_function, midpoint_taylor_table, test_function_names
from .fgn import H_SPECIAL, grid_spacing, rho, sample_fbm_2d, sum_rho_cubed
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
    _grid_count,
    _step_count,
    k_components,
    kl_reduce,
    p_n,
    v3,
    v_pq,
    v_pq_hermite,
    v_tilde_pq,
    w3,
    w_grad,
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
    name: str
    series_constants: dict = field(default_factory=dict)
    per_level: list = field(default_factory=list)
    tests: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    raw: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(t["verdict"] for t in self.tests)

    def add_test(self, name: str, statistic: float, verdict: bool, p_value=None):
        self.tests.append(
            {
                "name": name,
                "statistic": float(statistic),
                "p_value": None if p_value is None else float(p_value),
                "verdict": bool(verdict),
            }
        )

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

    def add_raw(self, statistic: str, values, seeds):
        for i, (v, s) in enumerate(zip(values, seeds)):
            self.raw.append((i, int(s), statistic, float(v)))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _level_master(master_seed: int, tag: int) -> int:
    """Independent master seed for one sub-experiment of a run."""
    return derive_seed(master_seed, 0x10000 + tag)


# ---------------------------------------------------------------------------
# Estimators (top-level and picklable)


def draw_v_pq(seed, *, H, n, t, fname, p, q):
    path = sample_fbm_2d(H, n, 0, _grid_count(n, t), seed)
    return v_pq(get_test_function(fname), path, t, p, q).value


def draw_v3(seed, *, H, n, t, fname):
    path = sample_fbm_2d(H, n, 0, _grid_count(n, t), seed)
    return v3(get_test_function(fname), path, t).value


# Brownian-clock estimators.  For odd-order sums the up- and downcrossings
# of each edge cancel, so a skeleton sum depends on the walk only through its
# terminal position j*: it equals the one-sided sum out to y = j* 2^{-n/2} on
# the fBm segment between 0 and j*.  Only j* is drawn, never the walk.  The
# one-sided forms recover the edge count as floor(2^{n/2} |y|), which gives
# back |j*| exactly for y = j* * grid_spacing(n) (checked for n <= 60 and
# |j*| < 2^22).


def _terminal_segment(seed, H, n, t):
    """Terminal walk position j*, its height y, and the fBm between 0 and j*."""
    j_star = sample_terminal(n, _step_count(n, t), seed)
    fbm = sample_fbm_2d(H, n, min(0, j_star), max(0, j_star), seed)
    return j_star, j_star * grid_spacing(n), fbm


def draw_o_tilde(seed, *, H, n, t, fname):
    _, y, fbm = _terminal_segment(seed, H, n, t)
    return w_grad(get_test_function(fname), fbm, y).value


def draw_skeleton_residual(seed, *, H, n, t, fname):
    f = get_test_function(fname)
    j_star, y, fbm = _terminal_segment(seed, H, n, t)
    z1, z2 = fbm.value(1, j_star), fbm.value(2, j_star)
    o = w_grad(f, fbm, y).value
    return float(f(z1, z2)) - float(f(0.0, 0.0)) - o


def draw_v_tilde_3(seed, *, H, n, t, fname):
    _, y, fbm = _terminal_segment(seed, H, n, t)
    return w3(get_test_function(fname), fbm, y).value


def draw_terminal_y(seed, *, n, t):
    return sample_terminal(n, _step_count(n, t), seed) * grid_spacing(n)


def draw_correction_fbm(seed, *, fname, t, mesh):
    return sample_correction_fbm(get_test_function(fname), t, mesh, seed).value


def draw_rhs_fbmbt(seed, *, fname, t, mesh):
    return sample_change_of_variable_rhs(get_test_function(fname), t, mesh, seed).value


# ---------------------------------------------------------------------------
# Experiments


def run_rho_table(replications=None, master_seed=0, workers=1) -> ExperimentResult:
    """Telescoping check: sum_{|r|<=m} rho(r) = (m+1)^{2H} - m^{2H}."""
    res = ExperimentResult(name="rho-table")
    tol = THRESHOLDS["telescoping_abs"]
    for H in TELESCOPING_HURSTS:
        for m in TELESCOPING_TRUNCATIONS:
            total = 1.0 + 2.0 * math.fsum(rho(np.arange(1, m + 1), H))
            # stable form of (m+1)^{2H} - m^{2H}
            target = float(m) ** (2 * H) * math.expm1(2 * H * math.log1p(1.0 / m))
            err = abs(total - target)
            res.add_test(f"telescoping_H{H:.6g}_m{m}", err, err <= tol)
    return res


def run_constants(replications=None, master_seed=0, workers=1) -> ExperimentResult:
    """Certified series constant S and the kappa weights derived from it."""
    res = ExperimentResult(name="constants")
    series = sum_rho_cubed(H_SPECIAL, 10**6)
    kap = kappa_constants(series)
    res.series_constants = {
        "S": series.value,
        "tail_bound": series.tail_bound,
        "truncation": series.m,
        "kappa1": kap.kappa1,
        "kappa2": kap.kappa2,
        "kappa3": kap.kappa3,
        "kappa4": kap.kappa4,
    }
    val, tol = THRESHOLDS["series_value"]
    res.add_test("series_value", series.value, abs(series.value - val) <= tol)
    res.add_test(
        "series_tail_bound", series.tail_bound,
        series.tail_bound < THRESHOLDS["series_tail"],
    )
    val, tol = THRESHOLDS["sqrt_6s"]
    s6 = math.sqrt(6.0 * series.value)
    res.add_test("sqrt_6S", s6, abs(s6 - val) <= tol)
    val, tol = THRESHOLDS["kappa1"]
    res.add_test("kappa1", kap.kappa1, abs(kap.kappa1 - val) <= tol)
    val, tol = THRESHOLDS["kappa3"]
    res.add_test("kappa3", kap.kappa3, abs(kap.kappa3 - val) <= tol)
    return res


def run_taylor_table(replications=None, master_seed=0, workers=1) -> ExperimentResult:
    """Midpoint Taylor coefficients: documented rationals, even orders vanish."""
    res = ExperimentResult(name="taylor-table")
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
        got = table.coefficient(*key)
        res.add_test(f"coeff_{key[0]}{key[1]}", float(got), got == want)
    even_ok = all(
        table.coefficient(a1, a2) == 0
        for k in range(2, 13, 2)
        for a1 in range(k + 1)
        for a2 in [k - a1]
    )
    res.add_test("even_orders_vanish", 0.0 if even_ok else 1.0, even_ok)
    return res


def _identity_instance(seed: int, fnames: list[str]) -> dict[str, float]:
    """Max relative deviation of each exact identity on one random instance."""
    rng = np.random.default_rng(seed)
    devs: dict[str, float] = {}

    # (a) crossing counts: brute force vs closed form, integer exact.  Only
    # the first ``horizon`` steps are read, and a shorter walk is a prefix of
    # a longer one on the same stream, so the walk is drawn up to the horizon.
    steps = 1 << int(rng.integers(4, 21))
    horizon = int(rng.integers(0, steps + 1))
    walk_a = sample_skeleton(8, horizon, seed)
    brute = crossings_bruteforce(walk_a, horizon).signed()
    closed = signed_crossings_closed_form(walk_a, horizon)
    devs["crossings"] = 0.0 if brute == closed else 1.0

    H = float(rng.uniform(0.05, 0.48))
    n = int(rng.integers(4, 13))
    t = float(rng.uniform(0.2, 1.5))
    f = get_test_function(fnames[int(rng.integers(0, len(fnames)))])
    p, q = [(1, 0), (0, 1), (3, 0), (0, 3), (1, 2), (2, 1), (5, 0), (2, 3)][
        int(rng.integers(0, 8))
    ]

    # (b), (c): skeleton sum vs crossing reduction vs one-sided form.
    m = _step_count(n, t)
    walk = sample_skeleton(n, m, seed)
    visited = walk.positions[: m + 1]
    fbm = sample_fbm_2d(H, n, int(visited.min()), int(visited.max()), seed)
    vt = v_tilde_pq(f, fbm, walk, t, p, q).value
    red = kl_reduce(f, fbm, walk, t, p, q).value
    devs["kl_reduce"] = _rel_err(vt, red)
    wv = w_pq(f, fbm, terminal_y(walk, m), p, q).value
    devs["one_sided"] = _rel_err(vt, wv)

    # (d): third-order sum = chaos components + trace remainder at H = 1/6.
    path6 = sample_fbm_2d(H_SPECIAL, n, 0, _grid_count(n, t), seed)
    lhs = v3(f, path6, t).value
    rhs = math.fsum(k.value for k in k_components(f, path6, t)) + p_n(f, path6, t).value
    devs["chaos_split"] = _rel_err(lhs, rhs)

    # (e): direct powers vs Hermite-rebuilt powers.
    path = sample_fbm_2d(H, n, 0, _grid_count(n, t), seed)
    direct = v_pq(f, path, t, p, q).value
    herm = v_pq_hermite(f, path, t, p, q).value
    devs["hermite"] = _rel_err(direct, herm)
    return devs


def run_identity_suite(replications=1000, master_seed=0, workers=1) -> ExperimentResult:
    res = ExperimentResult(name="identity-suite")
    fnames = test_function_names()
    worst: dict[str, float] = {}
    for i in range(replications):
        seed = derive_seed(master_seed, i)
        devs = _identity_instance(seed, fnames)
        for name, d in devs.items():
            worst[name] = max(worst.get(name, 0.0), d)
            res.raw.append((i, seed, f"identity_{name}", d))
    tol = THRESHOLDS["identity_rel"]
    for name, d in sorted(worst.items()):
        limit = 0.5 if name == "crossings" else tol  # crossings are integer exact
        res.add_test(f"identity_{name}", d, d <= limit)
    return res


def _second_moments(
    res: ExperimentResult,
    label: str,
    estimator,
    levels,
    replications: int,
    master_seed: int,
    tag: int,
    workers: int,
) -> list[float]:
    """Per-level E[value^2]; records raw draws and per-level summaries."""
    means = []
    for n in levels:
        values, seeds = mc_run(
            partial(estimator, n=n),
            replications,
            _level_master(master_seed, tag * 100 + n),
            workers,
        )
        res.add_raw(f"{label}_n{n}", values, seeds)
        sq = values**2
        res.add_level(n, sq)
        means.append(float(np.mean(sq)))
    return means


def run_converge_h_gt(
    replications=2000, master_seed=0, workers=1, H=0.3, t=1.0,
    fname="sin_x_cos_y", levels=(8, 10, 12, 14, 16, 18), p=1, q=2,
) -> ExperimentResult:
    """H > 1/6: weighted variation and skeleton residual decay in L2."""
    res = ExperimentResult(name="converge-h-gt")
    levels = tuple(levels)
    v_means = _second_moments(
        res, "v_pq",
        partial(draw_v_pq, H=H, t=t, fname=fname, p=p, q=q),
        levels, replications, master_seed, 1, workers,
    )
    fit_v = fit_rate(levels, v_means)
    res.rates.append({"name": "v_pq_second_moment", "slope": fit_v.slope,
                      "r_squared": fit_v.r_squared})
    res.add_test("v_pq_slope", fit_v.slope, fit_v.slope <= THRESHOLDS["decay_slope_max"])
    res.add_test(
        "v_pq_endpoint_drop", v_means[-1] / v_means[0],
        v_means[-1] < 0.25 * v_means[0],
    )
    r_means = _second_moments(
        res, "residual",
        partial(draw_skeleton_residual, H=H, t=t, fname=fname),
        levels, replications, master_seed, 2, workers,
    )
    fit_r = fit_rate(levels, r_means)
    res.rates.append({"name": "residual_second_moment", "slope": fit_r.slope,
                      "r_squared": fit_r.r_squared})
    decreasing = all(b < a for a, b in zip(r_means, r_means[1:]))
    res.add_test("residual_decreasing", float(decreasing), decreasing)
    res.add_test("residual_slope", fit_r.slope, fit_r.slope < 0.0)
    return res


def run_law_h_eq(
    replications=2000, master_seed=0, workers=1, t=1.0, n=20,
    mesh=DEFAULT_MESH, ks_replications=1500, mixture_replications=4000,
    modulus_levels=(10, 14, 18), modulus_replications=400,
) -> ExperimentResult:
    """H = 1/6: limiting variances, law matches, and the modulus bound."""
    res = ExperimentResult(name="law-h-eq")
    kap = default_kappas()
    s = kap.series.value
    res.series_constants = {
        "S": s, "tail_bound": kap.series.tail_bound,
        "kappa1": kap.kappa1, "kappa3": kap.kappa3,
    }
    rel_fbm = THRESHOLDS["variance_rel_fbm"]

    # Variance of the third-order sum, f = x^3 -> 36 kappa1^2 t.
    v3_x3, seeds = mc_run(
        partial(draw_v3, H=H_SPECIAL, n=n, t=t, fname="x^3"),
        replications, _level_master(master_seed, 10), workers,
    )
    res.add_raw("v3_x3", v3_x3, seeds)
    target = 36.0 * kap.kappa1**2 * t
    var = float(np.var(v3_x3, ddof=1))
    res.add_test("var_v3_x3", var / target, abs(var - target) <= rel_fbm * target)

    # f = x y^2 -> 4 kappa3^2 t.
    v3_xy2, seeds = mc_run(
        partial(draw_v3, H=H_SPECIAL, n=n, t=t, fname="x*y^2"),
        replications, _level_master(master_seed, 11), workers,
    )
    res.add_raw("v3_xy2", v3_xy2, seeds)
    target = 4.0 * kap.kappa3**2 * t
    var = float(np.var(v3_xy2, ddof=1))
    res.add_test("var_v3_xy2", var / target, abs(var - target) <= rel_fbm * target)

    # Brownian-time version, f = x^3 -> 36 kappa1^2 sqrt(2t/pi).  The random
    # Brownian time makes this a variance mixture with fatter tails, so it
    # gets a larger replication budget than the fixed-clock checks.
    vt3, seeds = mc_run(
        partial(draw_v_tilde_3, H=H_SPECIAL, n=n, t=t, fname="x^3"),
        mixture_replications, _level_master(master_seed, 12), workers,
    )
    res.add_raw("v_tilde3_x3", vt3, seeds)
    target = 36.0 * kap.kappa1**2 * math.sqrt(2.0 * t / math.pi)
    var = float(np.var(vt3, ddof=1))
    res.add_test(
        "var_v_tilde3_x3", var / target,
        abs(var - target) <= THRESHOLDS["variance_rel_fbmbt"] * target,
    )

    # Law match: V3 draws against the limiting correction integral.
    lhs, seeds = mc_run(
        partial(draw_v3, H=H_SPECIAL, n=n, t=t, fname="x^3"),
        ks_replications, _level_master(master_seed, 13), workers,
    )
    res.add_raw("ks_v3_x3", lhs, seeds)
    rhs, seeds = mc_run(
        partial(draw_correction_fbm, fname="x^3", t=t, mesh=mesh),
        ks_replications, _level_master(master_seed, 14), workers,
    )
    res.add_raw("ks_correction_fbm", rhs, seeds)
    ks = ks_two_sample(lhs, rhs)
    res.add_test(
        "ks_v3_correction", ks.statistic,
        ks.statistic < THRESHOLDS["ks_v3_correction"], p_value=ks.p_value,
    )

    # Law match on the Brownian clock: the gradient sum against
    # f(endpoint) - f(0) - correction.
    lhs, seeds = mc_run(
        partial(draw_o_tilde, H=H_SPECIAL, n=n, t=t, fname="sin_x_cos_y"),
        ks_replications, _level_master(master_seed, 15), workers,
    )
    res.add_raw("ks_o_tilde", lhs, seeds)
    rhs, seeds = mc_run(
        partial(draw_rhs_fbmbt, fname="sin_x_cos_y", t=t, mesh=mesh),
        ks_replications, _level_master(master_seed, 16), workers,
    )
    res.add_raw("ks_rhs_fbmbt", rhs, seeds)
    ks = ks_two_sample(lhs, rhs)
    res.add_test(
        "ks_otilde_rhs", ks.statistic,
        ks.statistic < THRESHOLDS["ks_otilde_rhs"], p_value=ks.p_value,
    )

    # Modulus bound: mean-square increment of the one-sided third-order sum
    # over a signed-horizon grid, against max(|s|,|t|)^{1/3} (2^{-n/2}+|t-s|).
    f = get_test_function("sin_x_cos_y")
    ts = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    worst = 0.0
    for lev in modulus_levels:
        m = _grid_count(lev, 1.0)
        acc = np.zeros((len(ts), len(ts)))
        master = _level_master(master_seed, 17 * 100 + lev)
        for i in range(modulus_replications):
            seed = derive_seed(master, i)
            fbm = sample_fbm_2d(H_SPECIAL, lev, -m, m, seed)
            vals = np.array([w3(f, fbm, float(u)).value for u in ts])
            acc += (vals[:, None] - vals[None, :]) ** 2
        acc /= modulus_replications
        for a in range(len(ts)):
            for b in range(len(ts)):
                if a == b or (ts[a] == 0.0 and ts[b] == 0.0):
                    continue
                bound = max(abs(ts[a]), abs(ts[b])) ** (1.0 / 3.0) * (
                    2.0 ** (-lev / 2.0) + abs(ts[a] - ts[b])
                )
                worst = max(worst, acc[a, b] / bound)
    res.add_test(
        "modulus_ratio", worst, worst < THRESHOLDS["modulus_constant"]
    )
    return res


def run_diverge_h_lt(
    replications=1000, master_seed=0, workers=1, H=0.1, t=1.0,
    fname="x^3", levels=(10, 12, 14, 16, 18, 20), fbmbt_replications=600,
) -> ExperimentResult:
    """H < 1/6: variance growth rate and the normalizing exponent."""
    res = ExperimentResult(name="diverge-h-lt")
    levels = tuple(levels)
    v_vars = []
    for n in levels:
        values, seeds = mc_run(
            partial(draw_v3, H=H, n=n, t=t, fname=fname),
            replications, _level_master(master_seed, 100 + n), workers,
        )
        res.add_raw(f"v3_n{n}", values, seeds)
        res.add_level(n, values**2)
        v_vars.append(float(np.var(values, ddof=1)))
    fit_v = fit_rate(levels, v_vars)
    res.rates.append({"name": "v3_variance", "slope": fit_v.slope,
                      "r_squared": fit_v.r_squared})
    target, tol = THRESHOLDS["divergence_slope"]
    res.add_test("v3_variance_slope", fit_v.slope, abs(fit_v.slope - target) <= tol)

    norm_vars = []
    for n in levels:
        values, seeds = mc_run(
            partial(draw_v_tilde_3, H=H, n=n, t=t, fname=fname),
            fbmbt_replications, _level_master(master_seed, 200 + n), workers,
        )
        scaled = values * 2.0 ** (-n * (1.0 - 6.0 * H) / 4.0)
        res.add_raw(f"v_tilde3_norm_n{n}", scaled, seeds)
        res.add_level(n, scaled**2)
        norm_vars.append(float(np.var(scaled, ddof=1)))
    fit_n = fit_rate(levels, norm_vars)
    res.rates.append({"name": "v_tilde3_normalized_variance", "slope": fit_n.slope,
                      "r_squared": fit_n.r_squared})
    res.add_test(
        "v_tilde3_normalized_slope", fit_n.slope,
        abs(fit_n.slope) <= THRESHOLDS["normalized_slope_abs"],
    )
    return res


def run_skeleton_suite(
    replications=10**4, master_seed=0, workers=1, n=16, t=1.0
) -> ExperimentResult:
    """Variance of the walk terminal value matches the Brownian time."""
    res = ExperimentResult(name="skeleton-suite")
    values, seeds = mc_run(
        partial(draw_terminal_y, n=n, t=t),
        replications, _level_master(master_seed, 1), workers,
    )
    res.add_raw("terminal_y", values, seeds)
    res.add_level(n, values)
    var = float(np.var(values, ddof=1))
    target = _step_count(n, t) * 2.0**-n
    res.add_test(
        "terminal_variance", var / target,
        abs(var - target) <= THRESHOLDS["terminal_var_rel"] * target,
    )
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
