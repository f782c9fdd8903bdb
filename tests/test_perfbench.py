"""The traced benchmark path: ``perfbench/child.py --trace 1`` wraps the
package's public functions and binds their arguments by name, so it is run
here end to end on a small identity suite, next to an untraced run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = {"experiment": "identity-suite", "replications": 30, "master_seed": 1}


def _child(out: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--config", json.dumps(CONFIG),
         "--workers", "1", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=300)


def test_traced_identity_suite_runs_and_writes_the_untraced_csv(tmp_path):
    traced = _child(tmp_path / "traced", 1)
    assert traced.returncode == 0, traced.stderr
    plain = _child(tmp_path / "plain", 0)
    assert plain.returncode == 0, plain.stderr
    result = json.loads((tmp_path / "traced" / "result.json").read_text())
    functions = result["trace"]["run"]["functions"]
    assert functions["skeleton.crossings_bruteforce"]["calls"] == 30
    assert (tmp_path / "traced" / "identity-suite.csv").read_bytes() == (
        tmp_path / "plain" / "identity-suite.csv").read_bytes()
