"""Experiment drivers: one function per named experiment.

Each driver returns an ``ExperimentResult`` holding per-level estimates,
named test verdicts, fitted rates, and the raw per-replication values.  The
command-line runner serializes these; the acceptance test suite asserts on
the verdicts directly.  All thresholds live in the ``THRESHOLDS`` table so
they are pinned in exactly one place, and each kind of verdict is decided by
one method: ``add_variance`` (a sample variance against its limit), ``add_ks``
(a two-sample law match), ``add_near`` (a number near a pinned constant)
and ``add_rate`` (a fitted log2-rate, whose verdict fails with a null
statistic when a value <= 0 leaves no rate to fit).

Estimator functions take a list of replication seeds plus keyword
configuration, return one value per seed, and are defined at module top
level so they can be shipped to worker processes.  Every fBm draw, the
identity suite's included, draws its paths as ragged rows of
``fgn._path_draws``, each a seed's fBm on a grid range that contains 0,
which runs a kernel once per fGn chunk of rows and draws only the
components that ``variations._components_read`` finds the kernel's terms
read.  An odd one-sided sum on the negative side is the sign of j* times
the sum read forward along the row, with no mirrored copy of the row.  The
identity suite alone reads whole walks, each drawn once, to the longest
horizon it reads: its crossings check counts the net crossings U_j - D_j
of the packed step bits of the first horizon steps, and its skeleton sums
read the positions of the first floor(2^n t).  It too runs a block of
seeds at a time (``_identity_instances``).  Its paths have one form, each
instance's X^1 and X^2 on its range as a ``(2, width)`` array, drawn a
level at a time with one H per row (``_level_paths``): the random-H paths
and the H = 1/6 paths of the chaos split alike.  Each side of an identity
is one midpoint pass over the ragged rows of the instances that share f
and (p, q), or f alone for the chaos split.
Runner keywords are the config keys, so a runner's ``function`` is passed
on to the draws as their ``fname``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .calculus import function_names, get_test_function, midpoint_taylor_table
from .fgn import (
    H_SPECIAL,
    _path_draws,
    check_level,
    grid_spacing,
    rho,
)
from .limitlaw import (
    default_kappas,
    sample_change_of_variable_rhs,
    sample_correction_fbm,
)
from .rng import STREAM_INSTANCE, derive_seed, keyed
from .skeleton import (
    crossings_bruteforce,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_position,
    walk_bits,
    walk_positions,
)
from .stats import fit_rate, ks_two_sample, mc_run
from .variations import (
    _VALUE,
    _chaos_components,
    _check_exponents,
    _components_read,
    _fsum_rows,
    _grid_count,
    _hermite_sum,
    _power_sum,
    _step_count,
    _taylor_sum,
    _taylor_terms,
    _trace_remainder,
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

    def add_test(self, name: str, statistic: float | None, verdict: bool, p_value=None):
        self.tests.append(
            {
                "name": name,
                "statistic": None if statistic is None else float(statistic),
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
        """``statistic`` near a pinned constant (``_near``)."""
        self.add_test(name, statistic, _near(key)(statistic))

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

    def add_rate(self, name: str, levels, values, test: str, passes):
        """Fit log2(values) on the levels and record the fit, then the verdict
        ``test`` of ``passes(slope)``, whose statistic is the slope.  A value
        <= 0 has no log: the fit is recorded with a null slope and r_squared,
        and the verdict fails with a null statistic."""
        fit = fit_rate(levels, values) if min(values) > 0 else None
        slope = None if fit is None else fit.slope
        self.rates.append({"name": name, "slope": slope,
                           "r_squared": None if fit is None else fit.r_squared})
        self.add_test(test, slope, fit is not None and passes(slope))

    def add_raw(self, statistic: str, values, seeds):
        for i, (v, s) in enumerate(zip(values, seeds)):
            self.raw.append((i, int(s), statistic, float(v)))


def _near(key: str):
    """Whether a number is within ``tol`` of ``center``; ``THRESHOLDS[key]``
    is both."""
    center, tol = THRESHOLDS[key]
    return lambda s: abs(s - center) <= tol


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
    f, steps = get_test_function(fname), _step_count(check_level(n), t)
    terms = _taylor_terms(order) + ([(_VALUE, (0, 0))] if residual else [])
    j_stars = [sample_terminal(steps, seed) for seed in seeds]

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
    return [sample_terminal(_step_count(n, t), seed) * grid_spacing(n) for seed in seeds]


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
    kap = default_kappas()
    series = kap.series
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


def _monomial_partial(a1: int, a2: int, b1: int, b2: int, x: Fraction, y: Fraction) -> Fraction:
    """d^{b1,b2} (x^a1 y^a2) evaluated at exact rational (x, y)."""
    if b1 > a1 or b2 > a2:
        return Fraction(0)
    c = Fraction(math.factorial(a1), math.factorial(a1 - b1))
    c *= Fraction(math.factorial(a2), math.factorial(a2 - b2))
    return c * x ** (a1 - b1) * y ** (a2 - b2)


def run_taylor_table() -> ExperimentResult:
    """Midpoint Taylor coefficients: documented rationals, even orders
    vanish, and the order-12 expansion is exact on every monomial x^i y^j,
    i + j <= 12, between a pair of rational points, in exact arithmetic."""
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
    even_ok = all(c == 0 for (a1, a2), c in table.items() if (a1 + a2) % 2 == 0)
    res.add_test("even_orders_vanish", 0.0 if even_ok else 1.0, even_ok)
    # f(b, d) - f(a, c) against the expansion about the midpoint; the
    # statistic is the largest absolute miss over the monomials.
    a, c, b, d = Fraction(1, 3), Fraction(-1, 2), Fraction(2), Fraction(5, 7)
    mx, my = (a + b) / 2, (c + d) / 2
    miss = max(
        abs(sum(coeff * _monomial_partial(i, j, b1, b2, mx, my) * (b - a) ** b1 * (d - c) ** b2
                for (b1, b2), coeff in table.items())
            - (b**i * d**j - a**i * c**j))
        for i in range(13)
        for j in range(13 - i)
    )
    res.add_test("expansion_exact", float(miss), miss == 0)
    return res


# The exact identities, in the order ``_identity_instances`` returns them.
_IDENTITIES = ("crossings", "kl_reduce", "one_sided", "chaos_split", "hermite")
# Judged by equality with 0.0.  Crossing counts are integers.  Walking an
# edge backward negates its increment exactly and keeps its midpoint, so the
# terms of an odd-order skeleton sum cancel or flip sign exactly, and its
# one-sided forms are the same correctly rounded float.
_EXACT_IDENTITIES = {"crossings", "kl_reduce", "one_sided"}


def _identity_parameters(seed: int, fnames: list[str]) -> tuple:
    """The horizon, H, n, t, f and (p, q) of the identity instance on
    ``seed``, drawn from its ``STREAM_INSTANCE`` stream: the horizon
    uniformly from 0..2^k steps, k uniform in 4..20."""
    rng = keyed(seed, STREAM_INSTANCE)
    steps = 1 << int(rng.integers(4, 21))
    horizon = int(rng.integers(0, steps + 1))
    H = float(rng.uniform(0.05, 0.48))
    n = int(rng.integers(4, 13))
    t = float(rng.uniform(0.2, 1.5))
    f = get_test_function(fnames[int(rng.integers(0, len(fnames)))])
    p, q = [(1, 0), (0, 1), (3, 0), (0, 3), (1, 2), (2, 1), (5, 0), (2, 3)][
        int(rng.integers(0, 8))
    ]
    return horizon, H, n, t, f, (p, q)


def _identity_instances(seeds: list[int], fnames: list[str]) -> np.ndarray:
    """Max relative deviation of each exact identity, in ``_IDENTITIES``
    order, on the random instance of each seed: one row per seed, bit for
    bit the row its seed gives alone, whatever seeds share the call.

    Every instance's parameters are drawn first, and (d) runs once per f
    over the H = 1/6 paths of every level (``_chaos_split``).  Each walk is
    then drawn once, to the longer of its horizon and m = floor(2^n t)
    steps: (a) counts the net crossings of its first horizon steps, brute
    force against the closed form, which needs only where they end, and
    (b), (c) read the positions of its first m.  The (b), (c), (e) paths,
    each at its own H, cover the walk's range and the fixed clock's
    [0, floor(2^(n/2) t)] (``_level_paths``).  The skeleton sums and the
    other sides each run a block of instances that share f and (p, q) at a
    time (``_walk_blocks``, ``_walk_identities``)."""
    params = [_identity_parameters(seed, fnames) for seed in seeds]
    devs = np.empty((len(seeds), len(_IDENTITIES)))
    devs[:, 3] = _chaos_split(seeds, params)
    walks = []
    for i, (seed, (horizon, _, n, t, *_)) in enumerate(zip(seeds, params)):
        m = _step_count(n, t)
        walk = walk_bits(seed, max(horizon, m))
        crossed = walk.prefix(horizon)  # (a): its first horizon steps
        closed = signed_crossings_closed_form(terminal_position(crossed))
        devs[i, 0] = 0.0 if crossings_bruteforce(crossed) == closed else 1.0
        walks.append(walk.prefix(m))
    ranges = [(int(pos.min()), max(int(pos.max()), _grid_count(n, t)))
              for pos, (_, _, n, t, *_) in zip(map(walk_positions, walks), params)]
    paths = _level_paths(seeds, params, [H for _, H, *_ in params], ranges)
    skeleton = np.empty(len(seeds))  # (b), (c): each path at its walk's positions
    for rows in _walk_blocks(params, [walk.steps + 1 for walk in walks]):
        v1, v2, counts = _ragged([paths[i][:, walk_positions(walks[i]) - ranges[i][0]]
                                  for i in rows])
        *_, f, (p, q) = params[rows[0]]
        skeleton[rows] = _power_sum(f, v1, v2, p, q, counts)
    for rows in _walk_blocks(params, [x.shape[1] for x in paths]):
        devs[np.ix_(rows, [1, 2, 4])] = _walk_identities(
            [params[i] for i in rows], [walks[i] for i in rows], [paths[i] for i in rows],
            [ranges[i][0] for i in rows], skeleton[rows])
    return devs


def _groups(keys) -> list[list[int]]:
    """The indices of ``keys`` grouped by equal key, each group in index
    order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# A block of walk identities holds at most this many values per component
# (64 KiB an array), which bounds its working set below that of a long
# crossings count; a longer row is a block of its own.  On two Xeon cores
# the skeleton sums of 2000 instances ran in ~0.13 s at 2^12 or 2^13
# values, ~0.14 s at 2^14 and ~0.24 s at 2^15, whose arrays fall out of cache.
_WALK_BLOCK_VALUES = 1 << 13


def _walk_blocks(params: list[tuple], values: list[int]) -> list[list[int]]:
    """The instances that share f and (p, q), most ``values`` first, cut
    into blocks whose rows, padded to the block's first, hold at most
    ``_WALK_BLOCK_VALUES`` values."""
    blocks = []
    for rows in _groups((f.name, pq) for *_, f, pq in params):
        block: list[int] = []
        for i in sorted(rows, key=lambda i: -values[i]):
            if block and (len(block) + 1) * values[block[0]] > _WALK_BLOCK_VALUES:
                blocks.append(block)
                block = []
            block.append(i)
        blocks.append(block)
    return blocks


def _level_paths(seeds: list[int], params: list[tuple], hs: float | list[float],
                 ranges: list[tuple[int, int]]) -> list[np.ndarray]:
    """Each instance's X^1 and X^2 at its level n and Hurst index ``hs``
    (one float, or one per instance), on its range (lo, hi), as a
    ``(2, hi - lo + 1)`` array of its own: the paths of one level are the
    rows of one ``_path_draws`` call, stored flat and zero-padded to the
    level's widest range.  One float draws through the eigenvalue cache."""
    paths: list = [None] * len(seeds)
    for rows in _groups(n for _, _, n, *_ in params):
        width = max(ranges[i][1] - ranges[i][0] for i in rows) + 1

        def stored(v1, v2, chunk, width=width):
            out = np.zeros((len(chunk), 2, width))
            out[:, 0, : v1.shape[1]], out[:, 1, : v2.shape[1]] = v1, v2
            return out.reshape(len(chunk), 2 * width)

        store = _path_draws(hs if np.ndim(hs) == 0 else [hs[i] for i in rows], params[rows[0]][2],
                            [ranges[i] for i in rows], [seeds[i] for i in rows], stored, 2 * width)
        for i, x in zip(rows, store.reshape(len(rows), 2, width)):
            paths[i] = x[:, : ranges[i][1] - ranges[i][0] + 1].copy()
    return paths


def _ragged(rows: list[np.ndarray]) -> tuple:
    """``(2, w)`` X^1, X^2 arrays as one ragged block: the two
    ``(len(rows), width)`` arrays, zero past each row's values, and each
    row's term count (one less than its values)."""
    counts = [x.shape[1] - 1 for x in rows]
    block = np.zeros((2, len(rows), max(counts) + 1))
    for r, x in enumerate(rows):
        block[:, r, : x.shape[1]] = x
    return block[0], block[1], counts


def _walk_identities(params: list[tuple], walks: list, paths: list[np.ndarray],
                     los: list[int], skeleton: np.ndarray) -> np.ndarray:
    """(b), (c) and (e) on instances that share f and (p, q), one column
    each, from each instance's ``skeleton`` sum, the j* of its walk of m
    steps and its path (``_level_paths``), which starts at grid index lo.
    Its rows: the path on [min(0, j*), max(0, j*)] (the crossing
    reduction, sign(j*) times its sum); from 0 out to y = j* 2^(-n/2),
    reversed when y < 0 (the one-sided form); and on the fixed clock's
    [0, floor(2^(n/2) t)] (the direct and the Hermite-rebuilt power sums).
    Each side is one midpoint pass over the group's rows."""
    *_, f, (p, q) = params[0]
    rows, signs = [], []
    for (_, _, n, t, *_), walk, x, lo in zip(params, walks, paths, los):
        j_star = terminal_position(walk)
        k = _grid_count(n, abs(j_star * grid_spacing(n)))
        rows.append((x[:, min(0, j_star) - lo : max(0, j_star) - lo + 1],
                     x[:, -lo : k - lo + 1] if j_star >= 0 else x[:, -k - lo : 1 - lo][:, ::-1],
                     x[:, -lo : _grid_count(n, t) - lo + 1]))
        signs.append((j_star > 0) - (j_star < 0))
    blocks = [_ragged(side) for side in zip(*rows)]
    red, wv, direct = (_power_sum(f, v1, v2, p, q, counts) for v1, v2, counts in blocks)
    red = np.array(signs) * red
    v1, v2, counts = blocks[2]
    herm = _hermite_sum(f, v1, v2, p, q, [2.0 ** (n * H / 2.0) for _, H, n, *_ in params],
                        counts)
    return np.array([[_rel_err(a, b) for a, b in zip(lhs.tolist(), rhs.tolist())]
                     for lhs, rhs in ((skeleton, red), (skeleton, wv), (direct, herm))]).T


def _chaos_split(seeds: list[int], params: list[tuple]) -> list[float]:
    """(d): the third-order sum against its chaos components plus the trace
    remainder at H = 1/6, on each instance's path on the fixed clock's
    [0, floor(2^(n/2) t)] (``_level_paths``).  The paths of every level
    are one ragged block, and each side is one pass per f over its rows."""
    counts = [_grid_count(n, t) for _, _, n, t, *_ in params]
    x1, x2, _ = _ragged(_level_paths(seeds, params, H_SPECIAL, [(0, c) for c in counts]))
    devs = [0.0] * len(seeds)
    for rows in _groups(f.name for *_, f, _ in params):
        f, ns, c = params[rows[0]][4], [params[i][2] for i in rows], [counts[i] for i in rows]
        v1, v2 = x1[rows], x2[rows]
        lhs = _taylor_sum(f, v1, v2, 3, c)
        rhs = (_fsum_rows(np.stack(_chaos_components(f, v1, v2, ns, c), axis=-1))
               + _trace_remainder(f, v1, v2, ns, c))
        for i, a, b in zip(rows, lhs.tolist(), rhs.tolist()):
            devs[i] = _rel_err(a, b)
    return devs


def run_identity_suite(replications=1000, master_seed=0, workers=1) -> ExperimentResult:
    res = ExperimentResult()
    devs, seeds = mc_run(
        partial(_identity_instances, fnames=function_names()),
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
    res.add_rate("v_pq_second_moment", levels, v_means,
                 "v_pq_slope", lambda s: s <= THRESHOLDS["decay_slope_max"])
    # A first level whose moment is 0 leaves the drop undefined, and failed.
    res.add_test(
        "v_pq_endpoint_drop", v_means[-1] / v_means[0] if v_means[0] > 0 else None,
        v_means[-1] < 0.25 * v_means[0],
    )
    r_means = [float(np.mean(v**2)) for v in _level_draws(
        res, "residual",
        partial(draw_skeleton_residual, H=H, t=t, fname=function),
        levels, replications, master_seed, 2, workers,
    )]
    decreasing = all(b < a for a, b in zip(r_means, r_means[1:]))
    res.add_test("residual_decreasing", float(decreasing), decreasing)
    res.add_rate("residual_second_moment", levels, r_means, "residual_slope", lambda s: s < 0.0)
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
    res.add_rate("v3_variance", levels, v_vars, "v3_variance_slope", _near("divergence_slope"))

    norm_vars = [float(np.var(v, ddof=1)) for v in _level_draws(
        res, "v_tilde3_norm", partial(draw_v_tilde_3, H=H, t=t, fname=function),
        levels, fbmbt_replications, master_seed, 2, workers,
        scale=lambda n: 2.0 ** (-n * (1.0 - 6.0 * H) / 4.0),
    )]
    res.add_rate("v_tilde3_normalized_variance", levels, norm_vars,
                 "v_tilde3_normalized_slope",
                 lambda s: abs(s) <= THRESHOLDS["normalized_slope_abs"])
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
