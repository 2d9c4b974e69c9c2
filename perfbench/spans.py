"""Span tracing of centersolve's public functions, installed from outside.

`Tracer.install()` replaces each public function of the traced modules with a
recording wrapper, both in its defining module and in every centersolve
module that imported it by name (so `cli.numeric_roots` and
`diagonalize.rational_roots` record as `oracle.numeric_roots` and
`oracle.rational_roots`).  `uninstall()` puts the originals back, so an
untraced call runs the program exactly as shipped.

A span is (id, parent id, name, start ns, end ns, extra); spans stay in
memory and are written out once, at the end of the run.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types

#: Modules whose public functions are traced, in report order.
MODULES = ("cli", "parser", "solver", "center", "linalg", "forms", "oracle", "diagonalize")

#: Public methods traced besides module-level functions.
METHODS = {"forms": (("NAryForm", "substitute_linear"),)}

#: Not wrapped: tiny hot helpers whose wrapper cost would distort the numbers,
#: and cli entry points whose work belongs to run_command's self time.
SKIP = {
    "cli": {"build_parser", "main"},
    "linalg": {
        "identity", "zeros", "mat_add", "mat_sub", "mat_scale", "mat_mul",
        "mat_vec", "transpose", "trace", "mat_eq",
    },
    "forms": {"poly_add", "poly_scale", "poly_mul", "poly_pow", "evaluate"},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, extra]
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._build()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, clock(), 0, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                span[4] = clock()
            if name == "oracle.numeric_roots":
                span[5] = {"iterations": result.iterations, "converged": result.converged}
            return result

        return traced

    def _build(self):
        package = sys.modules["centersolve"]
        originals = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules[f"centersolve.{short}"]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP.get(short, ())
                ):
                    originals[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                self._patches.append(
                    (cls, meth, fn, self._wrap(f"{short}.{cls_name}.{meth}", fn))
                )
        owners = [package] + [
            m for n, m in sys.modules.items() if n.startswith("centersolve.")
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value, hit[1]))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "t0_ns", "t1_ns", "extra"],
                 "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def self_times(spans):
    """Self ns per span (indexed by span id): duration minus direct children's."""
    child = [0] * len(spans)
    for sid, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - child[sid] for sid, _, _, t0, t1, _ in spans]
