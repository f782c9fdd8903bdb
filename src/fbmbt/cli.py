"""Config-driven experiment runner.

Usage:  fbmbt --config experiment.json [--out DIR] [--workers N] [--verbose]

The JSON config selects one experiment and overrides its defaults; a key the
experiment does not take, or a value of the wrong type or range, is a
configuration error raised before any work starts.  Outputs
are a CSV of raw replication values and a JSON summary; both land in the
output directory.  Exit code 0 when every verdict passes, 1 when any fails,
2 on a configuration error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from .calculus import test_function_names
from .experiments import RUNNERS, ExperimentResult
from .stats import MIN_FIT_LEVELS


class ConfigurationError(ValueError):
    pass


# Keys every experiment takes; the rest are the selected runner's keywords.
_RUN_KEYS = {"experiment", "csv", "json", "workers"}

# config key -> runner keyword
_KEY_ALIASES = {"function": "fname"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NONNEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_POSITIVE_REAL = (lambda v: _is_real(v) and v > 0, "a positive real number")
_LEVEL_LIST = (
    lambda v: isinstance(v, list) and len(v) > 0 and all(_is_int(n) and n >= 0 for n in v),
    "a nonempty list of nonnegative integers",
)
_FILE_NAME = (lambda v: isinstance(v, str) and v != "", "a nonempty file name")

# config key -> (check of its value, what the value must be)
_VALUE_CHECKS = {
    "H": (lambda v: _is_real(v) and 0 < v < 1, "a real number in (0, 1)"),
    "t": _POSITIVE_REAL,
    "mesh": _POSITIVE_REAL,
    "n": _NONNEGATIVE_INT,
    "p": _NONNEGATIVE_INT,
    "q": _NONNEGATIVE_INT,
    "master_seed": _NONNEGATIVE_INT,
    "csv": _FILE_NAME,
    "json": _FILE_NAME,
    "levels": _LEVEL_LIST,
    "modulus_levels": _LEVEL_LIST,
    # Keys that count draws or instances.
    "replications": _POSITIVE_INT,
    "ks_replications": _POSITIVE_INT,
    "mixture_replications": _POSITIVE_INT,
    "fbmbt_replications": _POSITIVE_INT,
    "modulus_replications": _POSITIVE_INT,
}


def _accepted_keys(runner) -> set[str]:
    """Config keys the runner takes: its keywords, under their config names."""
    names = set(inspect.signature(runner).parameters)
    config_name = {name: key for key, name in _KEY_ALIASES.items()}
    return _RUN_KEYS | {config_name.get(name, name) for name in names}


def _validate(config: dict) -> None:
    exp = config.get("experiment")
    if exp not in RUNNERS:
        raise ConfigurationError(
            f"key 'experiment' must be one of {sorted(RUNNERS)}, got {exp!r}"
        )
    unknown = set(config) - _accepted_keys(RUNNERS[exp])
    if unknown:
        raise ConfigurationError(
            f"keys not taken by experiment {exp!r}: {sorted(unknown)}"
        )
    for key in sorted(_VALUE_CHECKS.keys() & config.keys()):
        check, what = _VALUE_CHECKS[key]
        if not check(config[key]):
            raise ConfigurationError(f"key {key!r} must be {what}, got {config[key]!r}")
    levels = config.get("levels")
    if levels is not None:
        if levels != sorted(set(levels)):
            raise ConfigurationError("key 'levels' must be strictly increasing")
        if len(levels) < MIN_FIT_LEVELS:
            raise ConfigurationError(
                f"key 'levels' needs at least {MIN_FIT_LEVELS} levels for the "
                f"rate fit, got {len(levels)}"
            )
    fn = config.get("function")
    if fn is not None and fn not in test_function_names():
        raise ConfigurationError(
            f"key 'function' does not resolve: {fn!r}; "
            f"available: {', '.join(test_function_names())}"
        )


def _runner_kwargs(config: dict, workers: int) -> tuple:
    runner = RUNNERS[config["experiment"]]
    kwargs = {"workers": workers}
    for key, value in config.items():
        if key not in _RUN_KEYS:
            name = _KEY_ALIASES.get(key, key)
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
