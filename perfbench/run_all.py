"""Run every workload and print every metric by name with its unit.

Usage (from the repository root):

    python3 perfbench/run_all.py

Each workload runs on the development seed (1) and the held-out seed (2),
first untraced (end-to-end metrics) and then traced (per-layer metrics), for
BENCHMARK.json's ``run_seconds``.  Exits 1 if any run fails or reports an
incorrect output.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)
TRACES = (0, 1)


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for name in WORKLOADS:
        for seed in SEEDS:
            for trace in TRACES:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)],
                    cwd=HERE.parent, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed={seed} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok &= result["correct"]
                print(f"== {name} seed={seed} trace={trace} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                for line in lines[:-1]:
                    if " = " in line or line.startswith("environment") or "FAIL" in line:
                        print("   " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
