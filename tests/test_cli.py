import json

import pytest

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
    ],
)
def test_bad_config_exit_2(tmp_path, capsys, config):
    cfg = _write_config(tmp_path, config)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_every_runner_key_is_checked():
    from fbmbt.cli import _RUN_KEYS, _VALUE_CHECKS, _accepted_keys
    from fbmbt.experiments import RUNNERS

    for runner in RUNNERS.values():
        keys = _accepted_keys(runner) - _RUN_KEYS - {"function"}
        assert keys <= _VALUE_CHECKS.keys(), (runner.__name__, keys - _VALUE_CHECKS.keys())
