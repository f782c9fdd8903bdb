"""The verdict helpers of ``ExperimentResult``: each judges its statistic
against its ``THRESHOLDS`` entry with the comparison it documents, checked
one ``math.nextafter`` either side of the edge, and a rate that cannot be
fitted fails its verdict with a null statistic; ``taylor-table``'s
exactness check fails on one wrong coefficient of any order; and
``law-h-eq``'s modulus ratio equals the double loop over replication rows
and horizon pairs; an identity instance's parameters are pinned on
their keyed stream, and so is the identity suite's CSV; and the suite's
block evaluation gives every instance the deviations it has alone, bit for
bit, in any block of seeds."""

import hashlib
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from fbmbt import experiments
from fbmbt.calculus import function_names
from fbmbt.cli import run_experiment
from fbmbt.experiments import (
    ExperimentResult,
    _identity_instances,
    _identity_parameters,
    _level_master,
    _rel_err,
    draw_w3_horizons,
    run_law_h_eq,
    run_taylor_table,
)
from fbmbt.fgn import H_SPECIAL, sample_fbm_2d
from fbmbt.rng import derive_seed
from fbmbt.skeleton import (
    crossings_bruteforce,
    sample_skeleton,
    signed_crossings_closed_form,
    terminal_position,
    terminal_y,
    walk_bits,
)
from fbmbt.stats import fit_rate, ks_two_sample, mc_run, replication_seeds
from fbmbt.variations import _grid_count, _step_count
from test_variations import k_components, kl_reduce, p_n, v3, v_pq, v_pq_hermite, v_tilde_pq, w_pq


def _verdict(res):
    return res.tests[-1]["verdict"]


def test_add_variance_allows_the_relative_tolerance_itself(monkeypatch):
    # The sample variance of [0, 2] is 2.0, within 0.5 * 4.0 of the target 4.0.
    monkeypatch.setitem(experiments.THRESHOLDS, "terminal_var_rel", 0.5)
    res = ExperimentResult()
    res.add_variance("v", [0.0, 2.0], 4.0, "terminal_var_rel")
    assert res.tests == [{"name": "v", "statistic": 0.5, "p_value": None, "verdict": True}]
    res.add_variance("v", [0.0, 2.0], math.nextafter(4.0, math.inf), "terminal_var_rel")
    assert not _verdict(res)


@pytest.mark.parametrize("edge, beyond", [(1.25, math.inf), (0.75, -math.inf)])
def test_add_near_allows_the_tolerance_itself(monkeypatch, edge, beyond):
    monkeypatch.setitem(experiments.THRESHOLDS, "kappa1", (1.0, 0.25))
    res = ExperimentResult()
    res.add_near("k", edge, "kappa1")
    assert res.tests == [{"name": "k", "statistic": edge, "p_value": None, "verdict": True}]
    res.add_near("k", math.nextafter(edge, beyond), "kappa1")
    assert not _verdict(res)


def test_add_ks_needs_a_distance_below_the_threshold(monkeypatch):
    lhs, rhs = [0.0, 1.0], [0.5, 2.0]  # KS distance 0.5
    ks = ks_two_sample(lhs, rhs)
    monkeypatch.setitem(experiments.THRESHOLDS, "ks_v3_correction", 0.5)
    res = ExperimentResult()
    res.add_ks("ks_v3_correction", lhs, rhs)
    assert res.tests == [{"name": "ks_v3_correction", "statistic": 0.5,
                          "p_value": ks.p_value, "verdict": False}]
    monkeypatch.setitem(experiments.THRESHOLDS, "ks_v3_correction", math.nextafter(0.5, 1.0))
    res.add_ks("ks_v3_correction", lhs, rhs)
    assert _verdict(res)


def test_add_rate_records_the_fit_and_judges_its_slope():
    levels, values = (1, 2, 3), (2.0, 4.0, 8.0)
    fit = fit_rate(levels, values)
    res = ExperimentResult()
    res.add_rate("r", levels, values, "r_slope", lambda s: s <= fit.slope)
    res.add_rate("r", levels, values, "r_slope", lambda s: s < fit.slope)
    assert res.rates == [{"name": "r", "slope": fit.slope, "r_squared": fit.r_squared}] * 2
    assert [t["verdict"] for t in res.tests] == [True, False]
    assert [t["statistic"] for t in res.tests] == [fit.slope] * 2


@pytest.mark.parametrize("values", [(2.0, 0.0, 8.0), (0.0, 0.0, 0.0), (1.0, -1.0, 2.0)])
def test_a_rate_that_cannot_be_fitted_fails_its_verdict(values):
    # Nothing is asked of the slope: the verdict fails whatever it would say.
    with pytest.raises(ValueError):
        fit_rate((1, 2, 3), values)
    res = ExperimentResult()
    res.add_rate("r", (1, 2, 3), values, "r_slope", lambda s: True)
    assert res.rates == [{"name": "r", "slope": None, "r_squared": None}]
    assert res.tests == [{"name": "r_slope", "statistic": None, "p_value": None,
                          "verdict": False}]


def test_taylor_table_expansion_is_exact():
    (test,) = [t for t in run_taylor_table().tests if t["name"] == "expansion_exact"]
    assert test == {"name": "expansion_exact", "statistic": 0.0, "p_value": None,
                    "verdict": True}


@pytest.mark.parametrize("key", [(2, 1), (2, 2), (7, 4), (6, 6), (0, 11)])
def test_one_wrong_coefficient_fails_the_exactness_check(monkeypatch, key):
    # Odd and even orders alike, and orders that no other verdict reads.
    table = experiments.midpoint_taylor_table
    monkeypatch.setattr(experiments, "midpoint_taylor_table",
                        lambda k: {**table(k), key: Fraction(1, 7)})
    (test,) = [t for t in run_taylor_table().tests if t["name"] == "expansion_exact"]
    assert not test["verdict"] and test["statistic"] > 0.0


def _modulus_ratio_loop(master_seed, levels, replications):
    """The modulus ratio as a double loop over horizon pairs of mean-square
    increments accumulated one replication row at a time."""
    ts = (-1.0, -0.5, 0.0, 0.5, 1.0)
    worst = 0.0
    for lev in levels:
        rows, _ = mc_run(
            partial(draw_w3_horizons, H=H_SPECIAL, n=lev, ys=ts, fname="sin_x_cos_y"),
            replications, _level_master(master_seed, 17 * 100 + lev),
        )
        acc = [[0.0] * len(ts) for _ in ts]
        for vals in rows:
            for a in range(len(ts)):
                for b in range(len(ts)):
                    acc[a][b] += (vals[a] - vals[b]) ** 2
        for a in range(len(ts)):
            for b in range(len(ts)):
                if a == b or (ts[a] == 0.0 and ts[b] == 0.0):
                    continue
                bound = max(abs(ts[a]), abs(ts[b])) ** (1.0 / 3.0) * (
                    2.0 ** (-lev / 2.0) + abs(ts[a] - ts[b])
                )
                worst = max(worst, acc[a][b] / replications / bound)
    return worst


@pytest.mark.parametrize("master_seed", [1, 2, 20260823])
def test_modulus_ratio_equals_the_loop_over_rows_and_pairs(master_seed):
    levels, replications = (2, 6, 10), 8
    res = run_law_h_eq(
        replications=4, master_seed=master_seed, n=4, mesh=0.25, ks_replications=4,
        mixture_replications=4, modulus_levels=levels, modulus_replications=replications,
    )
    (ratio,) = [t["statistic"] for t in res.tests if t["name"] == "modulus_ratio"]
    assert ratio == _modulus_ratio_loop(master_seed, levels, replications)


# The parameters of the identity instance on seed 20260823, recorded from
# its STREAM_INSTANCE stream: horizon, H, n, t, f and (p, q).
_GOLDEN_INSTANCE = (182, 0.31952032611343667, 6, 1.3388413076332164, "x^3*y", (2, 1))


def test_identity_parameters_golden_stream():
    horizon, H, n, t, f, pq = _identity_parameters(20260823, function_names())
    assert (horizon, H, n, t, f.name, pq) == _GOLDEN_INSTANCE


# sha256 of the identity suite's CSV on 40 instances at master seed 1.  Their
# crossings checks read walks of up to 488 695 steps and their skeleton sums
# at most 5317, so the hash pins the walk stream far past the (b)/(c)
# prefix.  A change that moves the walk or instance streams re-records it.
_IDENTITY_CSV_SHA256 = "5ee289ad13f2d3985199087e21e8897fa1a92c0a8f330e232f30de6c62ee6bc4"


def test_identity_suite_csv_is_pinned(tmp_path):
    fnames = function_names()
    horizons = [_identity_parameters(derive_seed(1, i), fnames)[0] for i in range(40)]
    assert max(horizons) == 488695
    run_experiment({"experiment": "identity-suite", "replications": 40, "master_seed": 1},
                   tmp_path)
    csv = (tmp_path / "identity-suite.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == _IDENTITY_CSV_SHA256


# ---------------------------------------------------------------------------
# The identity suite's block evaluation against the per-seed instance it
# replaced, kept here verbatim as the oracle: one walk, two paths and one
# per-path statistic call per identity side, for one seed.


def _identity_instance(seed: int, fnames: list[str]) -> tuple[float, ...]:
    """Max relative deviation of each exact identity on one random instance,
    in ``_IDENTITIES`` order."""
    # The parameters are drawn in full before the walk or a path re-keys
    # the shared generator.
    horizon, H, n, t, f, (p, q) = _identity_parameters(seed, fnames)
    # (a) net crossing counts: brute force vs closed form, integer exact.
    # Both read the packed steps of the walk drawn to ``horizon`` steps; the
    # closed form needs only where they end, j* = 2·(up-steps) - horizon.
    packed = walk_bits(seed, horizon)
    brute = crossings_bruteforce(packed)
    closed = signed_crossings_closed_form(terminal_position(packed))
    crossings = 0.0 if brute == closed else 1.0

    # (b), (c): skeleton sum vs crossing reduction vs one-sided form, on the
    # first m steps, drawn as a walk of their own (the same stream, so the
    # same steps as (a)'s up to the shorter horizon), and on a path that
    # covers the walk's range and the fixed clock's [0, t].
    m = _step_count(n, t)
    walk = sample_skeleton(n, m, seed)
    fbm = sample_fbm_2d(H, n, int(walk.positions.min()),
                        max(int(walk.positions.max()), _grid_count(n, t)), seed)
    vt = v_tilde_pq(f, fbm, walk, t, p, q)
    red = kl_reduce(f, fbm, walk, t, p, q)
    wv = w_pq(f, fbm, terminal_y(walk), p, q)

    # (d): third-order sum = chaos components + trace remainder at H = 1/6.
    path6 = sample_fbm_2d(H_SPECIAL, n, 0, _grid_count(n, t), seed)
    lhs = v3(f, path6, t)
    rhs = math.fsum(k_components(f, path6, t)) + p_n(f, path6, t)

    # (e): direct powers vs Hermite-rebuilt powers, read off the fixed-clock
    # segment [0, floor(2^{n/2} t)] of the (b), (c) path.
    direct = v_pq(f, fbm, t, p, q)
    herm = v_pq_hermite(f, fbm, t, p, q)
    return (crossings, _rel_err(vt, red), _rel_err(vt, wv), _rel_err(lhs, rhs),
            _rel_err(direct, herm))


def _oracle_bits(seeds) -> bytes:
    fnames = function_names()
    return np.array([_identity_instance(seed, fnames) for seed in seeds]).tobytes()


def _block_bits(seeds, size) -> bytes:
    """``_identity_instances`` on ``seeds`` in consecutive blocks of ``size``."""
    fnames = function_names()
    return np.concatenate([_identity_instances(seeds[i : i + size], fnames)
                           for i in range(0, len(seeds), size)]).tobytes()


# 320 instances reach every test function and every (p, q).
_ORACLE_SEEDS = replication_seeds(320, 20261020)


def test_oracle_seeds_reach_every_function_and_exponent_pair():
    fnames = function_names()
    params = [_identity_parameters(seed, fnames) for seed in _ORACLE_SEEDS]
    assert {f.name for *_, f, _ in params} == set(fnames)
    assert len({pq for *_, pq in params}) == 8


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_identity_blocks_equal_the_instance_oracle(order):
    seeds = _ORACLE_SEEDS if order == "forward" else _ORACLE_SEEDS[::-1]
    want = _oracle_bits(seeds)
    for size in (1, 7, len(seeds)):
        assert _block_bits(seeds, size) == want, size


# Edge rows, each seed checked for what it is chosen for below: the walk of
# seed 3 ends at j* = 0 (its reduction is 0.0 and its one-sided horizon
# y = 0), the crossings horizon of seed 45 is 0, seeds 1550, 3217 and 5673
# share sin_x_cos_y and (2, 3) and have one fixed-clock increment each, and
# seeds 11106 and 68396 share bump and (2, 3) and have none.
_EDGE_SEEDS = [3, 45, 1550, 3217, 5673, 11106, 68396]


def test_identity_edge_rows_equal_the_instance_oracle():
    fnames = function_names()
    params = {seed: _identity_parameters(seed, fnames) for seed in _EDGE_SEEDS}
    _, _, n, t, _, _ = params[3]
    m = _step_count(n, t)
    assert sample_skeleton(n, m, 3).positions[m] == 0
    assert params[45][0] == 0
    for group, width in (([1550, 3217, 5673], 1), ([11106, 68396], 0)):
        assert len({(params[s][4].name, params[s][5]) for s in group}) == 1
        assert {_grid_count(params[s][2], params[s][3]) for s in group} == {width}
    groups = [(f.name, pq) for *_, f, pq in params.values()]
    assert min(groups.count(g) for g in groups) == 1  # a one-row group
    assert _block_bits(_EDGE_SEEDS, len(_EDGE_SEEDS)) == _oracle_bits(_EDGE_SEEDS)
