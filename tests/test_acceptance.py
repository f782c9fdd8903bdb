"""Acceptance suite: one test per criterion, fixed master seed, pinned
tolerances.  Each test prints a single PASS/FAIL line (visible with -s or on
failure).  The heavier Monte Carlo experiments are run once per session and
shared by the criteria that read different statistics from the same run.
"""

import pytest

from fbmbt.experiments import (
    THRESHOLDS,
    run_constants,
    run_converge_h_gt,
    run_diverge_h_lt,
    run_identity_suite,
    run_law_h_eq,
    run_rho_table,
    run_skeleton_suite,
    run_taylor_table,
)

MASTER_SEED = 20260823


def _report(criterion: str, tests: list) -> None:
    ok = all(t["verdict"] for t in tests)
    detail = "; ".join(
        f"{t['name']}={'null' if t['statistic'] is None else format(t['statistic'], '.4g')}"
        for t in tests)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"failed checks: {[t['name'] for t in tests if not t['verdict']]}"


@pytest.fixture(scope="session")
def law_result():
    return run_law_h_eq(master_seed=MASTER_SEED)


def _subset(result, names):
    return [t for t in result.tests if t["name"] in names]


def test_criterion_1_telescoping_rho():
    res = run_rho_table()
    assert len(res.tests) == 12
    _report("1 (telescoping rho, tol 1e-12)", res.tests)


def test_criterion_2_series_constant():
    res = run_constants()
    _report("2 (series constant and kappas)", res.tests)


def test_criterion_3_taylor_table():
    res = run_taylor_table()
    _report("3 (midpoint Taylor table, its expansion exact on monomials to order 12)",
            res.tests)


def test_criterion_4_identity_suite():
    res = run_identity_suite(replications=1000, master_seed=MASTER_SEED)
    assert all(
        t["statistic"] <= THRESHOLDS["identity_rel"]
        for t in res.tests
        if t["name"] != "identity_crossings"
    )
    _report("4 (exact identities, 1000 instances, 3 exact, 2 at rel tol 1e-10)", res.tests)


def test_criterion_5_decay_above_special_hurst():
    res = run_converge_h_gt(replications=2000, master_seed=MASTER_SEED)
    _report("5 (H=0.3 L2 decay, slope <= -0.25)", res.tests)


def test_criterion_6_limit_variances(law_result):
    _report(
        "6 (H=1/6 limit variances, 10%/10%/12%)",
        _subset(law_result, {"var_v3_x3", "var_v3_xy2", "var_v_tilde3_x3"}),
    )


def test_criterion_7_law_match(law_result):
    _report(
        "7 (H=1/6 KS law match, 0.08/0.10)",
        _subset(law_result, {"ks_v3_correction", "ks_otilde_rhs"}),
    )


def test_criterion_8_divergence_below_special_hurst():
    res = run_diverge_h_lt(replications=1000, master_seed=MASTER_SEED)
    _report("8 (H=0.1 variance growth 0.20+-0.10, normalized flat)", res.tests)


def test_criterion_9_skeleton_variance():
    res = run_skeleton_suite(replications=10**4, master_seed=MASTER_SEED, n=16)
    _report("9 (terminal variance within 5% of 1)", res.tests)


def test_criterion_10_modulus_bound(law_result):
    tests = _subset(law_result, {"modulus_ratio"})
    assert tests and tests[0]["statistic"] < THRESHOLDS["modulus_constant"]
    _report("10 (mean-square modulus ratio < 2.0)", tests)
