import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbmbt
from fbmbt.cli import ConfigurationError, main, run_experiment


def _write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_taylor_table_experiment(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "taylor-table"})
    code = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "taylor-table.json").read_text())
    assert all(t["verdict"] for t in summary["tests"])
    assert "runtime_seconds" in summary
    assert "seed_lineage" in summary
    csv = (tmp_path / "taylor-table.csv").read_text()
    assert csv.splitlines()[0] == "replication,seed,statistic,value"


def test_summary_reports_the_package_version(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "taylor-table"})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "taylor-table.json").read_text())
    assert summary["toolkit_version"] == fbmbt.__version__
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == fbmbt.__version__


def test_constants_experiment_embeds_series(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "constants"})
    code = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "constants.json").read_text())
    sc = summary["series_constants"]
    assert sc["S"] == pytest.approx(0.89853, abs=5e-4)
    assert sc["kappa1"] == pytest.approx(0.09675, abs=5e-4)
    assert sc["tail_bound"] < 1e-6


def test_identity_suite_small(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"experiment": "identity-suite", "replications": 20, "master_seed": 5},
    )
    code = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "identity-suite.csv").read_text().splitlines()
    assert len(rows) == 1 + 20 * 5  # header + five identities per instance


def test_reproducible_outputs(tmp_path):
    cfg = {"experiment": "skeleton-suite", "replications": 50, "n": 8,
           "master_seed": 11}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out1)
    run_experiment(cfg, out2)
    assert (out1 / "skeleton-suite.csv").read_bytes() == (
        out2 / "skeleton-suite.csv"
    ).read_bytes()
    s1 = json.loads((out1 / "skeleton-suite.json").read_text())
    s2 = json.loads((out2 / "skeleton-suite.json").read_text())
    assert s1["per_level"] == s2["per_level"]
    assert s1["tests"] == s2["tests"]


def test_workers_do_not_change_results(tmp_path):
    cfg = {"experiment": "skeleton-suite", "replications": 40, "n": 8,
           "master_seed": 3}
    run_experiment(cfg, tmp_path / "w1", workers=1)
    run_experiment(cfg, tmp_path / "w2", workers=2)
    assert (tmp_path / "w1" / "skeleton-suite.csv").read_bytes() == (
        tmp_path / "w2" / "skeleton-suite.csv"
    ).read_bytes()


def test_unknown_experiment_exit_2(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "nope"})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_unknown_function_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path, {"experiment": "converge-h-gt", "function": "bad-name"}
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_bad_levels_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path, {"experiment": "diverge-h-lt", "levels": [12, 10]}
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        run_experiment({"experiment": "constants", "bogus": 1}, tmp_path)


def test_missing_config_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "skeleton-suite", "replications": "5"},
        {"experiment": "skeleton-suite", "replications": 2.0},
        {"experiment": "skeleton-suite", "replications": True},
        {"experiment": "identity-suite", "replications": 0},
        {"experiment": "diverge-h-lt", "fbmbt_replications": -3},
        {"experiment": "law-h-eq", "ks_replications": None},
        {"experiment": "law-h-eq", "modulus_replications": "many"},
        {"experiment": "law-h-eq", "mixture_replications": 0},
    ],
)
def test_bad_count_exit_2(tmp_path, config):
    cfg = _write_config(tmp_path, config)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_law_h_eq_mixture_replications(tmp_path):
    cfg = {"experiment": "law-h-eq", "n": 6, "replications": 10,
           "ks_replications": 10, "mixture_replications": 25,
           "modulus_levels": [4], "modulus_replications": 2, "mesh": 0.125}
    run_experiment(cfg, tmp_path)
    rows = (tmp_path / "law-h-eq.csv").read_text().splitlines()[1:]
    assert sum(row.split(",")[2] == "v_tilde3_x3" for row in rows) == 25


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "converge-h-gt", "H": "0.3"},
        {"experiment": "converge-h-gt", "H": 1.0},
        {"experiment": "converge-h-gt", "t": 0},
        {"experiment": "converge-h-gt", "p": -1},
        {"experiment": "law-h-eq", "mesh": "fine"},
        {"experiment": "law-h-eq", "n": 12.5},
        {"experiment": "law-h-eq", "modulus_levels": [10, -14]},
        {"experiment": "identity-suite", "master_seed": -1},
        {"experiment": "diverge-h-lt", "levels": ["a"]},
        {"experiment": "diverge-h-lt", "levels": [8, 10]},
        {"experiment": "converge-h-gt", "levels": [8, 10]},
        {"experiment": "constants", "H": 0.3, "levels": [1, 2, 3]},
        {"experiment": "converge-h-gt", "fname": "x^3"},
        {"experiment": "taylor-table", "csv": 3},
        {"experiment": "skeleton-suite", "workers": "lots"},
        {"experiment": "skeleton-suite", "n": 70, "replications": 5},
        {"experiment": "law-h-eq", "n": 60},
        {"experiment": "law-h-eq", "mesh": 1e-9},
        {"experiment": "law-h-eq", "modulus_levels": [50]},
        {"experiment": "converge-h-gt", "levels": [8, 10, 3000]},
        {"experiment": ["law-h-eq"]},
        {"experiment": {"a": 1}},
    ],
)
def test_bad_config_exit_2(tmp_path, capsys, config):
    cfg = _write_config(tmp_path, config)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "names",
    [
        {"csv": "x.out", "json": "x.out"},  # only the JSON was left
        {"csv": "taylor-table.json"},  # the default JSON name
        {"csv": "sub/x.csv"},  # failed on writing, after the run
        {"json": ".."},
    ],
)
def test_output_names_are_checked_before_any_work(tmp_path, capsys, monkeypatch, names):
    from fbmbt import cli

    def runner():
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli.RUNNERS, "taylor-table", runner)
    cfg = _write_config(tmp_path, {"experiment": "taylor-table", **names})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "make",
    [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"experiment": "\xff"}'),
        lambda path: path.write_text('{"experiment": "skeleton-suite", "n": 1' + "0" * 5000 + "}"),
        lambda path: path.write_text("[" * 10**5 + "]" * 10**5),
    ],
    ids=["directory", "not-utf8", "integer-too-long", "nested-too-deep"],
)
def test_unreadable_config_exit_2(tmp_path, capsys, make):
    make(tmp_path / "cfg.json")
    assert main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_under_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, out):
    from fbmbt import cli

    def runner():
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli.RUNNERS, "taylor-table", runner)
    cfg = _write_config(tmp_path, {"experiment": "taylor-table"})
    (tmp_path / "file").write_text("kept")
    assert main(["--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]
    assert (tmp_path / "file").read_text() == "kept"


_TINY = {"levels": [2, 4, 6], "replications": 4}
_TINY_DIVERGE = {"experiment": "diverge-h-lt", **_TINY, "fbmbt_replications": 4}
_TINY_LAW = {"experiment": "law-h-eq", "n": 4, "replications": 4, "ks_replications": 4,
             "mixture_replications": 4, "modulus_levels": [2], "modulus_replications": 4,
             "mesh": 0.25}
_TINY_SKELETON = {"experiment": "skeleton-suite", "n": 4, "replications": 4}


@pytest.mark.parametrize(
    "config, flags",
    [
        # p + q even, given or with the runner's default p = 1 or q = 2.
        ({"experiment": "converge-h-gt", "p": 2, "q": 2, **_TINY}, []),
        ({"experiment": "converge-h-gt", "q": 1, **_TINY}, []),
        ({"experiment": "converge-h-gt", "p": 0, **_TINY}, []),
        # The fitted statistic is identically zero.
        ({**_TINY_DIVERGE, "function": "x"}, []),
        ({**_TINY_DIVERGE, "function": "1"}, []),
        ({"experiment": "converge-h-gt", "function": "1", **_TINY}, []),
        # The residual is rounding noise: the midpoint rule is exact on quadratics.
        ({"experiment": "converge-h-gt", "function": "x*y", **_TINY}, []),
        # One draw has no sample variance.
        ({**_TINY_LAW, "replications": 1}, []),
        ({**_TINY_LAW, "mixture_replications": 1}, []),
        ({**_TINY_DIVERGE, "replications": 1}, []),
        ({**_TINY_DIVERGE, "fbmbt_replications": 1}, []),
        ({**_TINY_SKELETON, "replications": 1}, []),
        ({"experiment": "identity-suite", "replications": 1}, []),
        # A master seed that derive_seed would alias to a smaller one.
        ({**_TINY_SKELETON, "master_seed": 2**64 + 5}, []),
        # Worker counts that would run serially without a word.
        (_TINY_SKELETON, ["--workers", "0"]),
        (_TINY_SKELETON, ["--workers", "-3"]),
        # Keys the experiments without draws do not read.
        ({"experiment": "rho-table", "replications": 5000, "master_seed": 3}, []),
        ({"experiment": "constants", "master_seed": 3}, []),
        ({"experiment": "taylor-table", "replications": 10}, []),
        # An empty fixed-clock grid (floor(2^(n/2) t) = 0 at n = 0 and 1) or
        # an empty walk (floor(2^n t) = 0 at n = 0).
        ({**_TINY_DIVERGE, "levels": [0, 1, 2], "t": 0.5}, []),
        ({"experiment": "converge-h-gt", **_TINY, "levels": [0, 1, 2], "t": 0.5}, []),
        ({"experiment": "skeleton-suite", "n": 0, "t": 0.5}, []),
    ],
)
def test_input_the_run_cannot_honour_exit_2(tmp_path, capsys, config, flags):
    cfg = _write_config(tmp_path, config)
    assert main(["--config", str(cfg), "--out", str(tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_every_runner_key_is_checked():
    from fbmbt.cli import _RUN_KEYS, _VALUE_CHECKS, _accepted_keys
    from fbmbt.experiments import RUNNERS

    for runner in RUNNERS.values():
        keys = _accepted_keys(runner) - _RUN_KEYS - {"function"}
        assert keys <= _VALUE_CHECKS.keys(), (runner.__name__, keys - _VALUE_CHECKS.keys())


def test_workers_key_names_the_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment": "skeleton-suite", "workers": 2})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "--workers" in capsys.readouterr().err


def test_capacity_preflight_bounds():
    from fbmbt.cli import _validate

    # The fixed-clock grid of floor(2^(n/2)) increments meets the cap at n = 44.
    _validate({"experiment": "law-h-eq", "n": 44})
    with pytest.raises(ConfigurationError):
        _validate({"experiment": "law-h-eq", "n": 45})
    # skeleton-suite draws no grid, only a walk of 2^n steps (a 64-bit count).
    _validate({"experiment": "skeleton-suite", "n": 62})
    with pytest.raises(ConfigurationError):
        _validate({"experiment": "skeleton-suite", "n": 63})
    # 2^22 Euler steps fit; one more mesh refinement does not.
    _validate({"experiment": "law-h-eq", "mesh": 2.0**-22})
    with pytest.raises(ConfigurationError):
        _validate({"experiment": "law-h-eq", "mesh": 2.0**-23})


def test_capacity_error_during_run_exit_3(tmp_path, capsys, monkeypatch):
    from fbmbt import cli
    from fbmbt.fgn import CapacityError

    def runner(replications=None, master_seed=0, workers=1):
        raise CapacityError("grid of 10122008 increments exceeds exact-sampling cap 4194304")

    monkeypatch.setitem(cli.RUNNERS, "constants", runner)
    cfg = _write_config(tmp_path, {"experiment": "constants"})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["capacity error: grid of 10122008 increments exceeds "
                   "exact-sampling cap 4194304"]
    assert not out.exists()


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    import numpy as np

    from fbmbt import cli

    def runner(replications=None, master_seed=0, workers=1):
        raise np.linalg.LinAlgError("circulant embedding has a negative eigenvalue")

    monkeypatch.setitem(cli.RUNNERS, "constants", runner)
    cfg = _write_config(tmp_path, {"experiment": "constants"})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-1] == ("internal error: LinAlgError: circulant embedding has a "
                       "negative eigenvalue")
    assert not out.exists()


def test_non_finite_summary_exit_4(tmp_path, capsys, monkeypatch):
    from fbmbt import cli

    def runner():
        res = cli.ExperimentResult()
        res.add_test("variance", float("nan"), False)
        return res

    monkeypatch.setitem(cli.RUNNERS, "constants", runner)
    cfg = _write_config(tmp_path, {"experiment": "constants"})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines()[-1].startswith("internal error: ValueError:")
    assert not out.exists()


_SMALL_LAW_H_EQ = {"experiment": "law-h-eq", "n": 6, "replications": 12,
                   "ks_replications": 12, "mixture_replications": 12,
                   "modulus_levels": [4, 6], "modulus_replications": 20,
                   "mesh": 0.125, "master_seed": 8}


def test_law_h_eq_workers_do_not_change_results(tmp_path):
    run_experiment(_SMALL_LAW_H_EQ, tmp_path / "w1", workers=1)
    run_experiment(_SMALL_LAW_H_EQ, tmp_path / "w2", workers=2)
    w1, w2 = tmp_path / "w1", tmp_path / "w2"
    assert (w1 / "law-h-eq.csv").read_bytes() == (w2 / "law-h-eq.csv").read_bytes()
    assert (json.loads((w1 / "law-h-eq.json").read_text())["tests"]
            == json.loads((w2 / "law-h-eq.json").read_text())["tests"])


def test_modulus_check_runs_through_mc_run(tmp_path, monkeypatch):
    # One mc_run per modulus level, so --workers reaches the modulus draws.
    from fbmbt import experiments

    estimators = []
    mc_run = experiments.mc_run

    def counting(estimator, *args):
        estimators.append(estimator.func)
        return mc_run(estimator, *args)

    monkeypatch.setattr(experiments, "mc_run", counting)
    run_experiment(_SMALL_LAW_H_EQ, tmp_path)
    assert estimators.count(experiments.draw_w3_horizons) == 2


def test_identity_suite_judges_exact_identities_by_equality(monkeypatch):
    # A deviation of 2^-60 fails the three identities that are exact in
    # floating point and passes the two judged against identity_rel.
    from fbmbt import experiments

    tiny = 2.0**-60
    monkeypatch.setattr(experiments, "_identity_instances",
                        lambda seeds, fnames: [(0.0, tiny, tiny, tiny, tiny)] * len(seeds))
    verdicts = {t["name"]: t["verdict"] for t in experiments.run_identity_suite(3, 1).tests}
    assert verdicts == {"identity_crossings": True, "identity_kl_reduce": False,
                        "identity_one_sided": False, "identity_chaos_split": True,
                        "identity_hermite": True}


def test_identity_suite_workers_do_not_change_results(tmp_path):
    cfg = {"experiment": "identity-suite", "replications": 30, "master_seed": 9}
    run_experiment(cfg, tmp_path / "w1", workers=1)
    run_experiment(cfg, tmp_path / "w2", workers=2)
    assert (tmp_path / "w1" / "identity-suite.csv").read_bytes() == (
        tmp_path / "w2" / "identity-suite.csv"
    ).read_bytes()


def test_runtime_needs_numpy_only():
    code = (
        "import sys, fbmbt\n"
        "fbmbt.get_test_function('bump')(0.3, 0.2)\n"
        "fbmbt.ks_two_sample([0, 1], [2, 3])\n"
        "print(sorted({'scipy', 'sympy'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
