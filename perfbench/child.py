"""One fresh-interpreter repetition: set up fbmbt, then run one experiment.

Usage: python3 perfbench/child.py --config JSON --workers N --trace 0|1 --out DIR

Set-up is timed in three parts (import, first ``get_test_function``, which
builds the sympy catalog, and ``default_kappas``), then
``fbmbt.cli.run_experiment`` is timed on the config, writing the CSV and
JSON into DIR, and the process pools the run creates are counted.  With
``--trace 1`` the layer modules are wrapped by ``tracer.Tracer`` before the
catalog build and the per-layer aggregates and spans are written too.  The result goes to DIR/result.json.

numpy is not imported before ``import fbmbt``, so the import time is what a
CLI call pays.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rusage() -> tuple[float, float, float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime,
            me.ru_maxrss, kids.ru_maxrss)


def _count_pools() -> list:
    """Count every process pool created from now on, where it is created,
    so that a run which reuses one pool reads fewer."""
    import concurrent.futures
    import multiprocessing.pool
    made = []
    for cls in (concurrent.futures.ProcessPoolExecutor, multiprocessing.pool.Pool):
        def init(self, *args, _init=cls.__init__, **kwargs):
            made.append(1)
            _init(self, *args, **kwargs)
        cls.__init__ = init
    return made


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    config = json.loads(args.config)
    out = Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fbmbt
    import fbmbt.cli
    t1 = time.perf_counter()
    if not Path(fbmbt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fbmbt imported from {fbmbt.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    fbmbt.get_test_function("x^3")
    t3 = time.perf_counter()
    fbmbt.default_kappas()
    t4 = time.perf_counter()
    setup_trace = tracer.aggregate() if tracer else None
    if tracer:
        tracer.reset()

    fgn = sys.modules["fbmbt.fgn"]
    eig_cache = getattr(getattr(fgn, "_embedding_sqrt_eig", None), "cache_info", None)
    eig_before = eig_cache() if eig_cache else None
    pools = _count_pools()
    cpu0, kids0, _, _ = _rusage()
    start = time.perf_counter()
    fbmbt.cli.run_experiment(config, out, args.workers)
    run_s = time.perf_counter() - start
    cpu1, kids1, rss_self, rss_kids = _rusage()

    import multiprocessing
    import numpy
    import scipy
    sympy = sys.modules.get("sympy")
    result = {
        "import_s": t1 - t0,
        "catalog_build_s": t3 - t2,
        "default_kappas_s": t4 - t3,
        "setup_s": (t1 - t0) + (t4 - t2),
        "run_s": run_s,
        "cpu_s": (cpu1 - cpu0) + (kids1 - kids0),
        # ru_maxrss is in KiB on Linux; children report their largest member.
        "peak_rss_mb": (rss_self + rss_kids) / 1024.0,
        "pools": len(pools),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__ if sympy else "not loaded",
            "start_method": multiprocessing.get_start_method(),
            "nproc": os.cpu_count(),
        },
    }
    if tracer:
        eig_after = eig_cache() if eig_cache else None
        result["trace"] = {
            "setup": setup_trace,
            "run": tracer.aggregate(),
            "eig_hits": eig_after.hits - eig_before.hits if eig_cache else 0,
            "eig_misses": eig_after.misses - eig_before.misses if eig_cache else 0,
        }
        tracer.write(out / "spans.csv")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
