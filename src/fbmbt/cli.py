"""Config-driven experiment runner.

Usage:  fbmbt --config experiment.json [--out DIR] [--workers N] [--verbose]

The JSON config selects one experiment and overrides its defaults; a config
file that is not a readable JSON object, a key the experiment does not take, a
value of the wrong type or range, a worker count below 1, or an output
directory under a path that is not a directory is a configuration error
raised before any work starts.  Outputs are a CSV of raw replication values
and a JSON summary under two distinct plain file names (keys ``csv`` and
``json``); both land in the output directory.  Exit code 0 when every
verdict passes, 1 when any fails, 2 on a configuration error, 3 when a size
drawn during the run exceeds a sampler's cap, 4 on any other error, which is
a bug rather than a verdict (the traceback, then one ``internal error:``
line on stderr).  No output is written on codes 2-4.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import function_names, get_test_function
from .experiments import RUNNERS, ExperimentResult
from .fgn import MAX_INCREMENTS, CapacityError
from .limitlaw import _euler_steps
from .stats import MIN_FIT_LEVELS
from .variations import _grid_count, _step_count


class ConfigurationError(ValueError):
    pass


# Keys every experiment takes; the rest are the selected runner's keywords,
# apart from ``workers``, which only the --workers flag sets.
_RUN_KEYS = {"experiment", "csv", "json"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# A count of draws feeds a sample variance, which needs two of them.
_COUNT = (lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_NONNEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_POSITIVE_REAL = (lambda v: _is_real(v) and v > 0, "a positive real number")
_LEVEL_LIST = (
    lambda v: isinstance(v, list) and len(v) > 0 and all(_is_int(n) and n >= 0 for n in v),
    "a nonempty list of nonnegative integers",
)
# An output lands in the output directory itself, under its own name.
_FILE_NAME = (
    lambda v: isinstance(v, str) and v not in ("", ".", "..") and Path(v).name == v,
    "a plain file name, without a directory",
)

# config key -> (check of its value, what the value must be)
_VALUE_CHECKS = {
    "H": (lambda v: _is_real(v) and 0 < v < 1, "a real number in (0, 1)"),
    "t": _POSITIVE_REAL,
    "mesh": _POSITIVE_REAL,
    "n": _NONNEGATIVE_INT,
    "p": _NONNEGATIVE_INT,
    "q": _NONNEGATIVE_INT,
    # derive_seed keeps the low 64 bits, so a larger seed would alias a smaller one.
    "master_seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2^64)"),
    "csv": _FILE_NAME,
    "json": _FILE_NAME,
    "levels": _LEVEL_LIST,
    "modulus_levels": _LEVEL_LIST,
    # Keys that count draws or instances.
    "replications": _COUNT,
    "ks_replications": _COUNT,
    "mixture_replications": _COUNT,
    "fbmbt_replications": _COUNT,
    "modulus_replications": _COUNT,
}

# Experiments whose rate fits read a sum that is 0 up to rounding when every
# third partial of f vanishes: V3, and the skeleton residual, since the
# midpoint gradient sum is exact on quadratics.
_THIRD_ORDER_FITS = {"converge-h-gt", "diverge-h-lt"}


def _accepted_keys(runner) -> set[str]:
    """Config keys the runner takes: its keywords."""
    return _RUN_KEYS | set(inspect.signature(runner).parameters) - {"workers"}


def _validate(config: dict, workers: int = 1) -> dict:
    """Check the config before any work starts; returns the runner's
    keywords (``_arguments``)."""
    exp = config.get("experiment")
    if not isinstance(exp, str) or exp not in RUNNERS:
        raise ConfigurationError(
            f"key 'experiment' must be one of {sorted(RUNNERS)}, got {exp!r}"
        )
    if "workers" in config:
        raise ConfigurationError("key 'workers' is not a config key; use the --workers flag")
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
    csv, json_name = _output_names(config)
    if csv == json_name:
        raise ConfigurationError(f"keys 'csv' and 'json' name the same file {csv!r}")
    fn = config.get("function")
    if fn is not None and fn not in function_names():
        raise ConfigurationError(
            f"key 'function' does not resolve: {fn!r}; "
            f"available: {', '.join(function_names())}"
        )
    arg = _arguments(exp, config, workers)
    if "p" in arg and (arg["p"] + arg["q"]) % 2 == 0:
        raise ConfigurationError(f"keys 'p' + 'q' must be odd, got {arg['p']} + {arg['q']}")
    if exp in _THIRD_ORDER_FITS and all(get_test_function(arg["function"]).vanishes(a, 3 - a)
                                        for a in range(4)):
        raise ConfigurationError(
            f"experiment {exp!r} needs a function with a third partial that is not "
            f"identically zero; every one of {arg['function']!r} vanishes"
        )
    _check_capacity(exp, arg)
    return arg


def _arguments(exp: str, config: dict, workers: int) -> dict:
    """The runner's keywords: each config value, a list as a tuple, else the
    runner's default; ``workers`` is the --workers flag's."""
    params, values = inspect.signature(RUNNERS[exp]).parameters, dict(config, workers=workers)
    arg = {name: values.get(name, param.default) for name, param in params.items()}
    return {name: tuple(v) if isinstance(v, list) else v for name, v in arg.items()}


def _check_size(what: str, count, cap: int) -> None:
    """Refuse ``what`` when ``count()`` is 0, exceeds ``cap`` or overflows a
    float."""
    try:
        size = count()
    except OverflowError:
        size = math.inf
    if size == 0:
        raise ConfigurationError(f"{what} is empty")
    if size > cap:
        raise ConfigurationError(f"{what} exceeds the sampler's cap {cap}")


def _check_capacity(exp: str, arg: dict) -> None:
    """Refuse a size that is fixed before the run and that no sampler can
    draw, or that draws nothing: on an empty walk or fixed-clock grid every
    statistic is 0.  Sizes drawn at random (|j*| on the Brownian clock,
    |Y_t| / mesh in the Euler sampler) are checked by the samplers."""
    t = arg.get("t")
    for n in arg.get("levels") or ([arg["n"]] if "n" in arg else []):
        # The walk's terminal point is one binomial draw of a 64-bit count.
        _check_size(f"the walk of floor(2^{n} t) steps", lambda: _step_count(n, t),
                    np.iinfo(np.int64).max)
        if exp != "skeleton-suite":  # the only one without a fixed-clock grid
            _check_size(f"the level-{n} grid of floor(2^({n}/2) t) increments",
                        lambda: _grid_count(n, t), MAX_INCREMENTS)
    for lev in arg.get("modulus_levels", ()):
        _check_size(f"the modulus grid of 2 floor(2^({lev}/2)) increments",
                    lambda: 2 * _grid_count(lev, 1.0), MAX_INCREMENTS)
    if "mesh" in arg:
        _check_size("the Euler grid of max(1, round(t / mesh)) steps",
                    lambda: _euler_steps(t, arg["mesh"]), MAX_INCREMENTS)


def _output_names(config: dict) -> tuple[str, str]:
    """The CSV and JSON file names, by default the experiment's name."""
    name = config["experiment"]
    return config.get("csv", f"{name}.csv"), config.get("json", f"{name}.json")


def _read_config(path: str) -> dict:
    """The JSON object in the file at ``path``.  Undecodable bytes, bad JSON and
    too long an integer raise ``ValueError``, too deep a nesting ``RecursionError``."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError("config must be a JSON object")
    return config


def write_csv(result: ExperimentResult, path: Path) -> None:
    lines = ["replication,seed,statistic,value"]
    for rep, seed, stat, value in result.raw:
        lines.append(f"{rep},{seed},{stat},{value:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def build_summary(config: dict, result: ExperimentResult, runtime: float) -> dict:
    return {
        "config": config,
        "toolkit_version": __version__,
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


def run_experiment(config: dict, out_dir: str | Path, workers: int = 1,
                   verbose: bool = False) -> ExperimentResult:
    if not _is_int(workers) or workers < 1:
        raise ConfigurationError(f"--workers must be a positive integer, got {workers!r}")
    kwargs = _validate(config, workers)
    # The output directory (any path-like) is made after the run, under its nearest existing path.
    out_dir = Path(out_dir)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigurationError(f"--out {str(out_dir)!r}: {str(nearest)!r} is not a directory")
    start = time.perf_counter()
    result = RUNNERS[config["experiment"]](**kwargs)
    runtime = time.perf_counter() - start
    # Strict JSON: a non-finite value is an internal error, raised before
    # any output is written.
    summary = json.dumps(build_summary(config, result, runtime), indent=2, allow_nan=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv, json_name = _output_names(config)
    write_csv(result, out_dir / csv)
    (out_dir / json_name).write_text(
        summary + "\n", encoding="utf-8", newline="\n"
    )
    if verbose:
        for test in result.tests:
            status = "PASS" if test["verdict"] else "FAIL"
            stat = "null" if test["statistic"] is None else f"{test['statistic']:.6g}"
            print(f"  [{status}] {test['name']}: {stat}")
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
        config = _read_config(args.config)
        result = run_experiment(
            config, Path(args.out), workers=args.workers, verbose=args.verbose
        )
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    failed = [t["name"] for t in result.tests if not t["verdict"]]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print(f"PASS: {config['experiment']} ({len(result.tests)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
