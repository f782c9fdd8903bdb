"""The verdict helpers of ``ExperimentResult``: each judges its statistic
against its ``THRESHOLDS`` entry with the comparison it documents, checked
one ``math.nextafter`` either side of the edge; and ``law-h-eq``'s modulus
ratio equals the double loop over replication rows and horizon pairs."""

import math
from functools import partial

import pytest

from fbmbt import experiments
from fbmbt.experiments import (
    ExperimentResult,
    _level_master,
    draw_w3_horizons,
    run_law_h_eq,
)
from fbmbt.fgn import H_SPECIAL
from fbmbt.stats import ks_two_sample, mc_run


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
