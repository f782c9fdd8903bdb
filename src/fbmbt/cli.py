"""Config-driven experiment runner.

Usage:  fbmbt --config experiment.json [--out DIR] [--workers N] [--verbose]

The JSON config selects one experiment and overrides its defaults.  Outputs
are a CSV of raw replication values and a JSON summary; both land in the
output directory.  Exit code 0 when every verdict passes, 1 when any fails,
2 on a configuration error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from .calculus import test_function_names
from .experiments import RUNNERS, ExperimentResult


class ConfigurationError(ValueError):
    pass


_CONFIG_KEYS = {
    "experiment", "H", "levels", "t", "n", "function", "replications",
    "master_seed", "mesh", "workers", "ks_replications",
    "mixture_replications", "modulus_levels", "modulus_replications",
    "fbmbt_replications", "p", "q", "csv", "json",
}

# Keys that count draws or instances: each must be a positive integer.
_COUNT_KEYS = {
    "replications", "ks_replications", "mixture_replications",
    "fbmbt_replications", "modulus_replications",
}

# config key -> runner keyword
_KEY_ALIASES = {"function": "fname"}


def _validate(config: dict) -> None:
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    exp = config.get("experiment")
    if exp not in RUNNERS:
        raise ConfigurationError(
            f"key 'experiment' must be one of {sorted(RUNNERS)}, got {exp!r}"
        )
    for key in sorted(_COUNT_KEYS & config.keys()):
        value = config[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigurationError(
                f"key {key!r} must be a positive integer, got {value!r}"
            )
    levels = config.get("levels")
    if levels is not None:
        if list(levels) != sorted(set(int(n) for n in levels)):
            raise ConfigurationError("key 'levels' must be strictly increasing")
    fn = config.get("function")
    if fn is not None and fn not in test_function_names():
        raise ConfigurationError(
            f"key 'function' does not resolve: {fn!r}; "
            f"available: {', '.join(test_function_names())}"
        )


def _runner_kwargs(config: dict, workers: int) -> tuple:
    runner = RUNNERS[config["experiment"]]
    accepted = set(inspect.signature(runner).parameters)
    kwargs = {"workers": workers}
    for key, value in config.items():
        if key in ("experiment", "csv", "json", "workers"):
            continue
        name = _KEY_ALIASES.get(key, key)
        if name in accepted:
            kwargs[name] = tuple(value) if isinstance(value, list) else value
    return runner, kwargs


def _toolkit_version() -> str:
    try:
        return version("fbmbt")
    except PackageNotFoundError:
        return "unknown"


def write_csv(result: ExperimentResult, path: Path) -> None:
    lines = ["replication,seed,statistic,value"]
    for rep, seed, stat, value in result.raw:
        lines.append(f"{rep},{seed},{stat},{value:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def build_summary(config: dict, result: ExperimentResult, runtime: float) -> dict:
    return {
        "config": config,
        "toolkit_version": _toolkit_version(),
        "series_constants": result.series_constants,
        "per_level": result.per_level,
        "tests": result.tests,
        "rates": result.rates,
        "runtime_seconds": runtime,
        "seed_lineage": {
            "master_seed": config.get("master_seed", 0),
            "scheme": (
                "replication i uses splitmix64(master XOR i*0x9E3779B97F4A7C15); "
                "per-replication component streams use fixed documented offsets; "
                "per-row seeds are in the CSV"
            ),
        },
    }


def run_experiment(config: dict, out_dir: Path, workers: int = 1,
                   verbose: bool = False) -> ExperimentResult:
    _validate(config)
    runner, kwargs = _runner_kwargs(config, workers)
    start = time.perf_counter()
    result = runner(**kwargs)
    runtime = time.perf_counter() - start
    out_dir.mkdir(parents=True, exist_ok=True)
    name = config["experiment"]
    write_csv(result, out_dir / config.get("csv", f"{name}.csv"))
    summary = build_summary(config, result, runtime)
    (out_dir / config.get("json", f"{name}.json")).write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    if verbose:
        for test in result.tests:
            status = "PASS" if test["verdict"] else "FAIL"
            print(f"  [{status}] {test['name']}: {test['statistic']:.6g}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbmbt", description="Run one verification experiment from a JSON config."
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel replications (does not affect results)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise ConfigurationError("config must be a JSON object")
        result = run_experiment(
            config, Path(args.out), workers=args.workers, verbose=args.verbose
        )
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    failed = [t["name"] for t in result.tests if not t["verdict"]]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print(f"PASS: {config['experiment']} ({len(result.tests)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
