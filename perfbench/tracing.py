"""In-memory spans around the package's public functions, installed from outside.

The package's modules import each other's functions by name
(``from fatpoints.linalg import rank_rows``), so a call from ``schemes``
goes through ``schemes.rank_rows``, not ``linalg.rank_rows``.  ``install``
therefore replaces every module attribute that holds one of the traced
functions, wherever it was imported, with one timing wrapper per function.
``regularity_index`` is wrapped the same way, around its ``lru_cache``
object, so its cache stays in use.

Spans are recorded only inside an item span; work outside items (input
preparation, the reference checks) leaves no trace.  A span is
``[label, parent index, start, end]``; self time is the span's duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> {function name: span label}
TRACED = {
    "linalg": {"rank_rows": "linalg.rank_rows", "rref": "linalg.rref", "kernel_basis": "linalg.kernel_basis"},
    "schemes": {
        name: f"schemes.{name}"
        for name in (
            "regularity_index",
            "hilbert_function",
            "condition_rows",
            "in_fat_ideal",
            "artinian_quotient_regularity",
            "monomial_bound_check",
        )
    },
    "segre": {"segre_bound": "segre.segre_bound"},
    "geometry": {
        "span": "geometry.span",
        "general_position_on": "geometry.classify",
        "degeneracy_index": "geometry.classify",
    },
    "generators": {"generate": "generators.generate"},
    "constructions": {
        name: f"constructions.{name}"
        for name in (
            "build_certificate",
            "verify_certificate",
            "distribute_flats",
            "segre_verdict",
            "removal_recursion_check",
        )
    },
    "harness": {"batch_check": "harness.batch_check"},
}

ITEM = "item"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.shapes: Counter = Counter()  # (rows, cols) of every rank_rows call
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"fatpoints.{module}"]
            for name, label in names.items():
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._wrap(label, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "fatpoints" and not modname.startswith("fatpoints."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        spans, stack, shapes = self.spans, self._stack, self.shapes
        is_rank = label == "linalg.rank_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if is_rank:
                rows = args[0] if args else kwargs["rows"]
                ncols = args[1] if len(args) > 1 else kwargs["ncols"]
                shapes[(len(rows), ncols)] += 1
            rec = [label, stack[-1], perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def item(self):
        """Root span of one benchmark item."""
        rec = [ITEM, -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def totals(self) -> tuple[Counter, dict[str, float]]:
        """Call counts and self times (seconds) per label."""
        child = [0.0] * len(self.spans)
        for label, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (label, _, start, end), inner in zip(self.spans, child):
            calls[label] += 1
            self_s[label] += end - start - inner
        return calls, self_s
