"""In-memory span tracer that wraps derc's public functions from outside.

Each wrapped call records a span [id, name, start, end, parent id]. A
function is patched wherever its name is bound in a loaded derc module,
because modules import each other's functions by name (cluster and
autoencoder hold their own references to forward_layers, mse_loss, ...).
Methods are patched on their class. restore() undoes every patch.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ID, NAME, START, END, PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            self.counters[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap module.attr and every derc-module name bound to the same object."""
        orig = getattr(module, attr)
        wrapper = self.wrap(name, orig, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "derc" or mod_name.startswith("derc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig, on_result))

    def restore(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            dur = rec[END] - rec[START]
            agg = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time[rec[ID]]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent"),
                                             rec))) + "\n")


def span_cost_us(calls: int = 20000) -> float:
    """Microseconds one wrapped call adds, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - t - bare) / calls * 1e6
