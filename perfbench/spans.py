"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function of the mtcat layer modules in
every ``mtcat.*`` namespace that binds it, matched by identity, so a call
from one module into another (``io.run_report`` -> ``check_modular``) is
recorded as well as a call from the benchmark.  Each call appends one span
``[name, start_ns, end_ns, parent_index, item]`` to an in-memory list; the
benchmark writes the list out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("catalog", "io", "fusion_ring", "category_data", "ribbon_modular", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None  # item id stamped on every span opened from now on
        self.names: set[str] = set()  # qualified names of the wrapped functions
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mtcat.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        self.names = {w.span_name for _, w in targets.values()}
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mtcat"]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = now()

        traced.span_name = name
        return traced

    def extend(self, spans, item) -> None:
        """Append spans recorded in another process, re-stamped with ``item``."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, item])


def per_item(spans) -> dict:
    """``{item: {name: [calls, self_ns]}}``; self time excludes direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, item) in enumerate(spans):
        slot = out.setdefault(item, {}).setdefault(name, [0, 0])
        slot[0] += 1
        slot[1] += end - start - child_ns[i]
    return out
