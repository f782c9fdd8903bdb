"""In-memory span tracer that wraps fbmbt's public functions from outside.

Every public function defined in a traced module is replaced by a wrapper
that records one span (name, start, end, parent, work).  The wrapper is
installed under every name that refers to the original, in every fbmbt
module and in module-level dicts such as ``experiments.RUNNERS``, because
callers import functions by name (``from .fgn import sample_fbm_2d``).
Nothing under ``src/`` changes.  Spans of pool children are invisible here,
so a traced run must use one worker.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("cli", "experiments", "stats", "limitlaw", "variations",
          "calculus", "skeleton", "fgn")

# Validators called inside every sampler, where a span each would only add
# noise, and the CLI entry point, which the benchmark does not call.
_UNTRACED = {"fgn.check_hurst", "fgn.check_level", "fgn.grid_spacing", "cli.main"}

VARIATIONS = ("v3", "w3", "v_tilde_3_reduced", "o_tilde_reduced", "v_tilde_pq",
              "kl_reduce", "w_pq", "v_pq", "k_components", "p_n", "v_pq_hermite")
DRAWS = ("draw_v3", "draw_v_tilde_3", "draw_correction_fbm", "draw_o_tilde",
         "draw_rhs_fbmbt")
# Consumers that read the whole walk rather than its terminal point.
FULL_PATH = {"skeleton.crossings_bruteforce", "variations.v_tilde_pq",
             "variations.o_tilde_n", "variations.v_tilde_3"}
EULER_SAMPLERS = {"limitlaw.sample_correction_fbm", "limitlaw.sample_correction_fbmbt",
                  "limitlaw.sample_change_of_variable_rhs"}


def _grid_terms(path, t):
    return int(math.floor(2.0 ** (path.level / 2.0) * abs(t)))


def _terminal(walk, t):
    return abs(int(walk.positions[int(math.floor(2.0**walk.level * t))]))


# Work counted per call: the number of increments a variation sums over.
_TERMS = {
    **{name: lambda a: _grid_terms(a["path"], a["t"])
       for name in ("v3", "v_pq", "v_pq_hermite", "k_components", "p_n", "o_n")},
    **{name: lambda a: int(math.floor(2.0 ** a["walk"].level * a["t"]))
       for name in ("v_tilde_pq", "o_tilde_n", "v_tilde_3")},
    **{name: lambda a: _terminal(a["walk"], a["t"])
       for name in ("kl_reduce", "o_tilde_reduced", "v_tilde_3_reduced")},
    "w_pq": lambda a: _grid_terms(a["fbm"], a["y"]),
    "w3": lambda a: _grid_terms(a["fbm"], a["y"]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []
        self._full_path_walks: dict[int, weakref.ref] = {}
        self.full_path_walks = 0

    def _note_full_path(self, walk) -> None:
        ref = self._full_path_walks.get(id(walk))
        if ref is None or ref() is not walk:
            self._full_path_walks[id(walk)] = weakref.ref(walk)
            self.full_path_walks += 1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        module, short = name.split(".", 1)
        sig = inspect.signature(fn)
        terms = _TERMS.get(short) if module == "variations" else None
        full_path = name in FULL_PATH

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if terms is not None or full_path:
                bound = sig.bind(*args, **kwargs).arguments
                if terms is not None:
                    span[4] = terms(bound)
                if full_path:
                    self._note_full_path(bound.get("walk", bound.get("path")))
            elif name == "fgn.sample_increments":
                span[4] = len(result)
            elif name == "skeleton.sample_skeleton":
                span[4] = result.steps
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", short)
        wrapper.__qualname__ = getattr(fn, "__qualname__", short)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, in place."""
        mods = {name: sys.modules[f"fbmbt.{name}"] for name in LAYERS}
        originals: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _UNTRACED or isinstance(obj, type)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = self._wrap(name, obj)
        cholesky = getattr(mods["fgn"], "_cholesky_factor", None)
        if cholesky is not None:
            originals[id(cholesky)] = self._wrap("fgn._cholesky_factor", cholesky)
        for modname, mod in list(sys.modules.items()):
            if modname != "fbmbt" and not modname.startswith("fbmbt."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            obj[key] = originals[id(value)]

    def reset(self) -> None:
        self.spans.clear()
        self._full_path_walks.clear()
        self.full_path_walks = 0

    def aggregate(self) -> dict:
        """Per-name calls, inclusive and self seconds, work; per-module self
        seconds; Euler steps (increments drawn under a limit-law sampler)."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_euler = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under_euler[i] = under_euler[parent] or spans[parent][0] in EULER_SAMPLERS
        per_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0})
        per_module = defaultdict(float)
        euler_increments = 0
        for i, (name, start, end, parent, work) in enumerate(spans):
            rec = per_name[name]
            rec["calls"] += 1
            rec["incl_s"] += end - start
            own = end - start - child[i]
            rec["self_s"] += own
            rec["work"] += work
            per_module[name.split(".", 1)[0]] += own
            if under_euler[i] and name == "fgn.sample_increments":
                euler_increments += work
        return {
            "functions": dict(per_name),
            "module_self_s": dict(per_module),
            # The Euler sampler draws two fBm components per path.
            "euler_steps": euler_increments // 2,
            "full_path_walks": self.full_path_walks,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start,end,parent,work\n")
            for name, start, end, parent, work in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent},{work}\n")
