"""Spans around the public functions of each `foelner` module, from outside.

`install` rebinds module and class attributes in the running process, so
every call that goes through a module attribute (`norms.u_norm(...)`,
`ops.compress(...)`, ...) or a method lookup runs inside a span.  No file of
the package changes.  Spans stay in memory; `Tracer.dump` writes them out
and `Tracer.summary` folds them into per-case totals when the pass ends.

A span records name, start, end, parent and counters.  Counters are computed
from arguments and return values after the span has ended; that cost is
charged to the parent as child time, so it lands in no layer's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

import numpy as np


def _dim(w) -> int:
    a = getattr(w, "entries", w)
    return int(max(np.shape(a) or (0,)))


# (module, attribute, counters(args, kwargs, result) -> dict).  A counter
# named "size" selects the spans a scaling exponent is taken over.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "load_spec_file", None),
    ("ops", "compress", lambda a, k, r: {"cells": r.dim ** 2, "size": r.dim}),
    ("ops", "commutator_triplets", lambda a, k, r: {"nnz": len(r)}),
    ("norms", "report_sequence", None),
    ("norms", "report", None),
    ("norms", "u_norm", None),
    ("norms", "seminorm", lambda a, k, r: {"dim": _dim(a[0])}),
    ("norms", "classify", None),
    ("decomp", "select_subsequence", lambda a, k, r: {"found": len(r)}),
    ("decomp", "halmos_decompose", lambda a, k, r: {
        "nnz": int(np.count_nonzero(r.window.entries)), "cells": r.window.dim ** 2}),
    ("decomp", "sparse_family", None),
    ("szego", "szego_compare", None),
    ("szego", "_trace_moments", lambda a, k, r: {"size": int(a[1])}),
    ("szego", "fitted_gap_constant", None),
    ("berg", "random_hermitian", None),
    ("berg", "berg_sequence", lambda a, k, r: {"steps": len(r.block_ranks)}),
    ("weyl", "parse_element", None),
    ("weyl", "multiply", None),
    ("weyl", "MonomialSubspace.dimension", lambda a, k, r: {"rows": len(a[0].extras)}),
    ("weyl", "foelner_ratio", None),
    ("weyl", "amenability_witness", lambda a, k, r: {"size": r.n}),
    ("weyl", "represent", None),
)

# counters combined by maximum instead of sum
_MAX_COUNTERS = {"dim", "size"}


class Tracer:
    """In-memory span recorder for one pass in one process."""

    def __init__(self):
        # [name, start, end, parent index, child seconds, counters, case]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = ""

    def call(self, name: str, fn: Callable, *args, counters: Callable | None = None,
             **kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, 0.0, None, self.case]
        index = len(self.spans)
        self.spans.append(rec)
        self._stack.append(index)
        t0 = time.perf_counter()
        t1 = None
        try:
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            if counters is not None:
                rec[5] = counters(args, kwargs, result)
        finally:
            done = time.perf_counter()
            self._stack.pop()
            rec[1], rec[2] = t0, done if t1 is None else t1
            if parent is not None:
                self.spans[parent][4] += done - t0
        return result

    def wrap(self, name: str, fn: Callable, counters: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counters=counters, **kwargs)
        return traced

    def install(self, package) -> None:
        """Rebind every target in the imported `foelner` package."""
        for module_name, attr, counters in TARGETS:
            owner = getattr(package, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            name = f"{module_name}.{attr}"
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), counters))

    def dump(self, path) -> None:
        """Write the spans as JSON lines: one object per span."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, _, counters, case) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "case": case,
                                     "counters": counters or {}}) + "\n")

    def summary(self) -> dict:
        """Per case and span name: calls, total and self seconds, counters.

        Also per (case, name, size) total seconds, for scaling exponents.
        """
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "counters": {}})
        sized: dict = defaultdict(float)
        for name, t0, t1, _, child, counters, case in self.spans:
            agg = out[f"{case}\t{name}"]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child
            for key, val in (counters or {}).items():
                cur = agg["counters"].get(key, 0)
                agg["counters"][key] = max(cur, val) if key in _MAX_COUNTERS else cur + val
                if key == "size":
                    sized[f"{case}\t{name}\t{val}"] += t1 - t0
        return {"spans": dict(out), "sized": dict(sized)}
