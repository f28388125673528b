"""In-memory span tracer that wraps a package's functions where they are imported.

``from .operators import iteration_matrix`` binds the function into the
importing module's namespace, so a hook replaces every binding of the
target function across the package's modules, including the defining
module's own (which catches calls made inside that module).  Each call
records a span: name, start, end and the enclosing span.  Spans stay in
memory until ``save``; self time is a span's duration minus the time its
direct children cover.
"""
from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Counter = Callable[[tuple, dict, object], dict[str, float]]


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` ("module.function" within the package) as span ``span``.

    Several hooks may share one span name; ``count`` maps a call's
    arguments and result to counter increments.
    """

    target: str
    span: str
    count: Counter | None = None


@dataclass(frozen=True)
class SpanStats:
    calls: int
    self_s: float


class Tracer:
    """Records spans for the hooked functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []     # hook targets that no longer exist
        self.broken: set[str] = set()   # counters whose inputs no longer fit
        self._stack = [-1]
        self._bound: list[tuple[object, str, object]] = []

    def install(self, package: str, hooks: list[Hook]) -> None:
        """Replace every binding of each hooked function inside ``package``."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for hook in hooks:
            module_name, _, func_name = hook.target.rpartition(".")
            home = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(home, func_name, None)
            if not callable(fn):
                self.absent.append(hook.target)
                continue
            wrapper = self._wrap(fn, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bound):
            setattr(module, attr, fn)
        self._bound.clear()

    def _wrap(self, fn, hook: Hook):
        if hook.span not in self.names:
            self.names.append(hook.span)
        nid = self.names.index(hook.span)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter
        count = hook.count

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                self._count(hook, args, kwargs, result)
            return result

        return wrapper

    def _count(self, hook: Hook, args: tuple, kwargs: dict, result: object) -> None:
        try:
            increments = hook.count(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            self.broken.add(hook.target)
            return
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def mark(self) -> int:
        """Index of the next span; spans in [mark_a, mark_b) form one pass."""
        return len(self.start)

    def stats(self, lo: int, hi: int) -> dict[str, SpanStats]:
        """Calls and self time per span name over spans [lo, hi)."""
        start = np.array(self.start[lo:hi])
        dur = np.array(self.end[lo:hi]) - start
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        name = np.array(self.name[lo:hi], dtype=np.int64)
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: SpanStats(int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every recorded span (times in perf_counter seconds)."""
        np.savez(path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
