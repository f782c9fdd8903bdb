import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbmbt
from fbmbt.rng import derive_seed, splitmix64
from fbmbt.stats import fit_rate, kolmogorov_tail, ks_two_sample, mc_run


def test_ks_identical_samples():
    a = [1.0, 2.0, 3.0]
    assert ks_two_sample(a, a).statistic == 0.0


def test_ks_disjoint_samples():
    r = ks_two_sample([0.0, 0.0], [1.0, 1.0])
    assert r.statistic == 1.0


def test_ks_hand_computed():
    r = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
    assert r.statistic == pytest.approx(1.0 / 3.0)


def test_ks_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=200), rng.normal(size=300) + 0.3
    r1 = ks_two_sample(a, b)
    r2 = ks_two_sample(b, a)
    assert r1.statistic == r2.statistic
    r3 = ks_two_sample(np.exp(a), np.exp(b))
    assert r3.statistic == pytest.approx(r1.statistic)


def test_ks_same_law_large_p():
    rng = np.random.default_rng(1)
    r = ks_two_sample(rng.normal(size=2000), rng.normal(size=2000))
    assert r.p_value > 0.01


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_fit_rate_exact_log_linear():
    ns = np.arange(4, 12)
    fit = fit_rate(ns, 2.0 ** (-0.4 * ns))
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rate_constant():
    fit = fit_rate([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_noisy():
    rng = np.random.default_rng(3)
    ns = np.arange(1, 21)
    values = 3.0 * 2.0 ** (0.2 * ns) * (1 + 0.01 * rng.normal(size=20))
    fit = fit_rate(ns, values)
    assert fit.slope == pytest.approx(0.2, abs=0.02)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([1, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1.0, -2.0, 3.0])


def _estimator(seeds):
    # A block estimator: one value per seed, each its seed's value alone.
    return [float(splitmix64(seed) % 1000) for seed in seeds]


def test_mc_run_deterministic():
    v1, s1 = mc_run(_estimator, 50, 77)
    v2, s2 = mc_run(_estimator, 50, 77)
    assert np.array_equal(v1, v2)
    assert s1 == s2


def test_mc_run_single_matches_direct():
    v, s = mc_run(_estimator, 1, 123)
    assert v[0] == _estimator([derive_seed(123, 0)])[0]


def test_mc_run_parallel_matches_serial():
    serial, _ = mc_run(_estimator, 40, 9, workers=1)
    parallel, _ = mc_run(_estimator, 40, 9, workers=2)
    assert np.array_equal(serial, parallel)


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records the worker count it
    is asked for and maps in this process, so no worker is started."""

    asked: list = []
    blocks: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        self.blocks.append([len(block) for block in blocks])
        return map(fn, blocks)


@pytest.mark.parametrize("cpus, replications, workers, want", [
    (4, 400, 5000, 4),  # capped by the CPUs
    (None, 400, 5000, 1),  # os.cpu_count() may not know
    (64, 3, 5000, 3),  # capped by the blocks: one seed each
    (4, 400, 3, 3),
])
def test_mc_run_pool_asks_for_no_more_workers_than_cpus_or_blocks(
        monkeypatch, cpus, replications, workers, want):
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    values, _ = mc_run(_estimator, replications, 9, workers=workers)
    assert _SerialPool.asked == [want]
    assert np.array_equal(values, mc_run(_estimator, replications, 9)[0])


@pytest.mark.parametrize("replications, workers, sizes", [
    (2000, 2, [1000, 1000]),
    (401, 2, [201, 200]),
    (10, 4, [3, 3, 3, 1]),
    (3, 8, [1, 1, 1]),
])
def test_mc_run_pool_hands_each_worker_one_block(monkeypatch, replications, workers, sizes):
    # One task of consecutive seeds per worker: a block estimator sees the
    # largest blocks the pool allows.
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "asked", [])
    monkeypatch.setattr(_SerialPool, "blocks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    values, _ = mc_run(_estimator, replications, 9, workers=workers)
    assert _SerialPool.blocks == [sizes]
    assert _SerialPool.asked == [len(sizes)]
    assert np.array_equal(values, mc_run(_estimator, replications, 9)[0])


def test_mc_run_validation():
    with pytest.raises(ValueError):
        mc_run(_estimator, 0, 1)


def test_kolmogorov_tail_matches_scipy():
    special = pytest.importorskip("scipy.special")
    xs = np.concatenate([np.geomspace(1e-300, 1e-3, 200), np.linspace(1e-3, 6.0, 20001),
                         [0.1, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 10.0, 27.0]])
    for x in xs:
        want = float(special.kolmogorov(x))
        if want > 1e-300:
            assert kolmogorov_tail(float(x)) == pytest.approx(want, rel=1e-12, abs=0.0), x
    assert kolmogorov_tail(0.0) == 1.0
    assert kolmogorov_tail(-2.0) == 1.0


def test_mc_run_rejects_a_value_count_other_than_the_seed_count():
    with pytest.raises(RuntimeError, match="returned 4 values for 5 seeds"):
        mc_run(lambda seeds: _estimator(seeds)[1:], 5, 1)


def test_cli_import_leaves_the_pool_machinery_unloaded():
    # mc_run imports ProcessPoolExecutor only when it starts a pool.
    code = ("import sys, fbmbt.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(fbmbt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
