"""Span recording around the public calls of the parachern layers.

The tracer wraps functions from outside the program: it replaces a public
function by a recording wrapper in every loaded module that binds it, and
puts the originals back afterwards.  Each span is (name, start, end,
parent); spans are kept in memory and written out once, at the end of a run.
A span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array


class Tracer:
    """In-memory span store with per-name self-time and call-count totals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        top, child = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = t
        dur = t - self.start[idx]
        name = self.names[self.name_of[idx]]
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str):
        return _Span(self, name)

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, name_of_call=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module or a class.  For a module function, every
        loaded module that binds the same object is patched too, so calls
        through ``from .forms import chern_forms`` are seen.
        ``name_of_call(args, kwargs)`` may refine the span name per call."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name if name_of_call is None else name_of_call(args, kwargs)
            idx = tracer.open(label)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = original
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [mod for mod in list(sys.modules.values())
                       if mod is not owner
                       and getattr(mod, "__dict__", {}).get(attr) is original]
        for target in owners:
            self._patched.append((target, attr, original))
            setattr(target, attr, traced)

    def unpatch(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent index]."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [
            [self.names[self.name_of[i]], round(self.start[i] - t0, 7),
             round(self.end[i] - t0, 7), self.parent[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False
