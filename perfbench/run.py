"""Benchmark of the fbmbt CLI path, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh interpreter (perfbench/child.py) that sets fbmbt
up and then times ``fbmbt.cli.run_experiment`` on the workload's config, with
one master seed derived from ``--seed``, so every repetition does the same
work and writes the same CSV.  Timed runs use one worker.  With ``--trace 0``
repetitions run until ``--seconds`` is used (at least two) and the end-to-end
metrics are their medians.  With ``--trace 1`` each repetition runs untraced,
at the workload's ``pool_workers`` when it has them, and traced; the
per-layer metrics are medians over repetitions, and all the CSVs must be
byte-identical.  Every output is checked (perfbench/workloads.py).
The metric names and units are those of BENCHMARK.json.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DRAWS, LAYERS, VARIATIONS
from workloads import WORKLOADS, Workload, check, expected_rows, read_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
# The whole run must end within 180 s; no repetition starts that would not.
BUDGET_S = 165.0
MIN_REPS = 2

def master_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_child(workload: Workload, mseed: int, workers: int, trace: int,
              out: Path, timeout: float) -> tuple[dict | None, str]:
    """Run one repetition; returns (result, error).  The child runs in its
    own session so that a timeout also stops its pool workers."""
    config = dict(workload.config, master_seed=mseed)
    cmd = [sys.executable, str(HERE / "child.py"), "--config", json.dumps(config),
           "--workers", str(workers), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads((out / "result.json").read_text(encoding="utf-8")), ""


class Tally:
    """Attempted and failed operations: replication rows and checks."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def child(self, out: Path, result: dict | None, error: str, label: str) -> tuple[int, str]:
        """Check one repetition's outputs; returns (CSV rows, CSV sha256)."""
        exp = self.workload.config["experiment"]
        csv_path = out / f"{exp}.csv"
        if result is not None:
            try:
                columns = read_csv(csv_path)
                summary = json.loads((out / f"{exp}.json").read_text(encoding="utf-8"))
                attempted, failed, checks = check(self.workload, columns, summary)
            except (OSError, ValueError, KeyError) as exc:
                result, error = None, f"unreadable output: {exc!r}"
        if result is None:
            rows = sum(expected_rows(self.workload).values())
            self.attempted += rows + 1
            self.failed += rows + 1
            print(f"{label}: internal error: {error}")
            return 0, ""
        self.attempted += attempted
        self.failed += failed
        zs = [(abs(c["z"]), c["name"]) for c in checks if "z" in c]
        print(f"{label}: {sum(c['ok'] for c in checks)}/{len(checks)} checks pass"
              + (", max |z| = %.2f (%s)" % max(zs) if zs else ""))
        for c in checks:
            if not c["ok"]:
                print(f"{label}: check FAIL " + json.dumps({k: v for k, v in c.items() if k != "ok"}))
        return sum(len(v) for v in columns.values()), hashlib.sha256(csv_path.read_bytes()).hexdigest()

    def same(self, name: str, a: str, b: str) -> None:
        self.attempted += 1
        ok = bool(a) and a == b
        self.failed += not ok
        print(f"check {'PASS' if ok else 'FAIL'} {name}")


def layer_metrics(traced: dict, untraced: dict, pool: dict | None, csv_bytes: int) -> dict:
    """Per-layer metrics of one repetition: ``traced`` and ``untraced`` ran at
    one worker, ``pool`` (if any) at the workload's ``pool_workers``."""
    tr = traced["trace"]
    fns = tr["run"]["functions"]

    def get(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    m = {}
    for name, key, stat in (("skeleton.sample_skeleton", "calls", "calls"),
                            ("skeleton.sample_skeleton", "self_s", "self_s"),
                            ("skeleton.sample_skeleton", "work", "steps"),
                            ("skeleton.crossings_bruteforce", "calls", "calls"),
                            ("skeleton.crossings_bruteforce", "self_s", "self_s"),
                            ("fgn.sample_fbm_2d", "calls", "calls"),
                            ("fgn.sample_fbm_2d", "self_s", "self_s"),
                            ("fgn.sample_increments", "calls", "calls"),
                            ("fgn.sample_increments", "self_s", "self_s"),
                            ("fgn.sample_increments", "work", "increments"),
                            ("limitlaw.sample_correction_fbm", "calls", "calls"),
                            ("limitlaw.sample_correction_fbm", "self_s", "self_s"),
                            ("limitlaw.sample_change_of_variable_rhs", "calls", "calls"),
                            ("limitlaw.sample_change_of_variable_rhs", "self_s", "self_s"),
                            ("calculus.get_test_function", "calls", "calls"),
                            ("stats.mc_run", "calls", "calls"),
                            ("stats.mc_run", "self_s", "harness_s"),
                            ("stats.mc_run", "incl_s", "wall_s")):
        m[f"{name}.{stat}"] = get(name, key)
    drawn = get("skeleton.sample_skeleton", "calls")
    m["skeleton.full_path_use_ratio"] = tr["run"]["full_path_walks"] / drawn if drawn else 0.0
    hits, misses = tr["eig_hits"], tr["eig_misses"]
    m["fgn.eig_cache.hits"] = hits
    m["fgn.eig_cache.misses"] = misses
    m["fgn.eig_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["fgn.cholesky.calls"] = get("fgn._cholesky_factor", "calls")
    m["fgn.sum_rho_cubed.s"] = (get("fgn.sum_rho_cubed", "incl_s")
                                + tr["setup"]["functions"].get("fgn.sum_rho_cubed", {}).get("incl_s", 0.0))
    terms = 0
    for fn in VARIATIONS:
        name = f"variations.{fn}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.terms"] = get(name, "work")
        terms += get(name, "work")
    module_self = tr["run"]["module_self_s"]
    m["variations.ns_per_term"] = 1e9 * module_self.get("variations", 0.0) / terms if terms else 0.0
    m["limitlaw.euler_steps"] = tr["run"]["euler_steps"]
    m["limitlaw.default_kappas_s"] = untraced["default_kappas_s"]
    m["calculus.catalog_build_s"] = untraced["catalog_build_s"]
    m["stats.mc_run.pools"] = pool["pools"] if pool else 0
    m["stats.pool.run_s"] = pool["run_s"] if pool else 0.0
    m["stats.pool.cpu_s"] = pool["cpu_s"] if pool else 0.0
    m["stats.ks_two_sample.s"] = get("stats.ks_two_sample", "incl_s")
    m["stats.fit_rate.s"] = get("stats.fit_rate", "incl_s")
    for fn in DRAWS:
        calls = get(f"experiments.{fn}", "calls")
        m[f"experiments.{fn}.calls"] = calls
        m[f"experiments.{fn}.ms_per_rep"] = (
            1e3 * get(f"experiments.{fn}", "incl_s") / calls if calls else 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = module_self.get(layer, 0.0)
    m["cli.import_s"] = untraced["import_s"]
    m["cli.write_csv.s"] = get("cli.write_csv", "incl_s")
    m["cli.write_csv.bytes"] = csv_bytes
    m["cli.build_summary.s"] = get("cli.build_summary", "incl_s")
    m["trace.run_s"] = traced["run_s"]
    m["trace.untraced_run_s"] = untraced["run_s"]
    m["trace.overhead_ratio"] = traced["run_s"] / untraced["run_s"]
    m["trace.self_sum_ratio"] = sum(module_self.values()) / traced["run_s"]
    return m


def _median_metrics(samples: list[dict], units: dict) -> dict:
    return {name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
            for name, unit in units.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "fbmbt" / "__init__.py").is_file():
        print(f"no fbmbt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    tally = Tally(workload)
    samples, env, durations = [], None, []
    mseed = master_seed(workload.name, args.seed)
    first_sha = ""

    rep = 0
    while True:
        elapsed = time.perf_counter() - started
        expect = statistics.mean(durations) if durations else 0.0
        if elapsed + 1.2 * expect > BUDGET_S:
            break
        if rep >= (1 if args.trace else MIN_REPS) and elapsed + expect > args.seconds:
            break
        t0 = time.perf_counter()
        out = WORK / f"{workload.name}-{os.getpid()}-{rep}"
        shutil.rmtree(out, ignore_errors=True)
        timeout = BUDGET_S - elapsed
        plain, error = run_child(workload, mseed, 1, 0, out / "plain", timeout)
        rows, plain_sha = tally.child(out / "plain", plain, error, f"rep {rep}")
        if rep == 0:
            first_sha = plain_sha
        else:
            tally.same(f"rep {rep}: CSV == rep 0", first_sha, plain_sha)
        if args.trace and plain is not None:
            pool = None
            if workload.pool_workers:
                pool, error = run_child(workload, mseed, workload.pool_workers, 0, out / "pool",
                                        BUDGET_S - (time.perf_counter() - started))
                _, pool_sha = tally.child(out / "pool", pool, error, f"rep {rep} pool")
                tally.same(f"rep {rep}: CSV at {workload.pool_workers} workers == at 1 worker",
                           plain_sha, pool_sha)
            traced, error = run_child(workload, mseed, 1, 1, out / "traced",
                                      BUDGET_S - (time.perf_counter() - started))
            _, traced_sha = tally.child(out / "traced", traced, error, f"rep {rep} traced")
            tally.same(f"rep {rep}: CSV traced == untraced", plain_sha, traced_sha)
            if traced is not None and (pool is not None or not workload.pool_workers):
                csv_bytes = (out / "plain" / f"{workload.config['experiment']}.csv").stat().st_size
                samples.append(layer_metrics(traced, plain, pool, csv_bytes))
                shutil.copy(out / "traced" / "spans.csv",
                            WORK / f"spans-{workload.name}-seed{args.seed}.csv")
        elif plain is not None:
            samples.append({**{k: plain[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")},
                            "reps_per_s": rows / plain["run_s"]})
        if plain is not None:
            env = env or plain["env"]
            print(f"rep {rep}: master_seed={mseed} setup_s={plain['setup_s']:.4f} "
                  f"(import {plain['import_s']:.4f}, catalog {plain['catalog_build_s']:.4f}, "
                  f"kappas {plain['default_kappas_s']:.4f}) run_s={plain['run_s']:.4f} "
                  f"cpu_s={plain['cpu_s']:.4f} peak_rss_mb={plain['peak_rss_mb']:.1f} rows={rows}")
        shutil.rmtree(out, ignore_errors=True)
        durations.append(time.perf_counter() - t0)
        rep += 1

    if not samples:
        print("no repetition completed", file=sys.stderr)
        return 1
    env = dict(env, cpu_model=_cpu_model(), workload=workload.name, seed=args.seed,
               master_seed=mseed, workers=1, pool_workers=workload.pool_workers,
               config=workload.config)
    print("environment " + json.dumps(env))
    for sample in samples:
        if sample.keys() != units.keys():
            raise RuntimeError("metrics differ from BENCHMARK.json: "
                               f"{sorted(sample.keys() ^ units.keys())}")
    metrics = _median_metrics(samples, units)
    for name, metric in metrics.items():
        values = [s[name] for s in samples]
        print(f"{name} = {metric['value']:.6g} {metric['unit']} "
              f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"op_failure_ratio = {ratio:.6g} ({tally.failed} of {tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
