"""Spans and work counts recorded from outside the program.

The benchmark never reaches inside ``src/cploss``.  It opens a span around
each of its own calls into a public function, and it wraps the callables it
hands to the program (weights, antiderivatives, links, experiment ``eta``,
margin derivatives) so that every evaluation is a span carrying the number
of points evaluated.  A compiled expression used as a weight is one
``weights.w`` span per call; its points also go to a plain counter,
``expressions.eval``, rather than to a second span.

:class:`NullTracer` serves the untraced runs that give the end-to-end
metrics: its span is one shared no-op context manager and it hands every
callable back unchanged.  :class:`Tracer` keeps every span in memory as
(name, parent, start, end, points) and writes them out once, when the run
ends.  Calls, points and self times are derived from those spans.
"""

from __future__ import annotations

import copy
import time
from array import array

import numpy as np


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing switched off: spans do nothing and callables pass through."""

    enabled = False

    def span(self, name, points=0):
        return _NULL_SPAN

    def wrap(self, name, fn, counter=None):
        return fn

    def with_fields(self, obj, **fields):
        return obj


class _Span:
    __slots__ = ("tracer", "name", "points", "index")

    def __init__(self, tracer, name, points):
        self.tracer = tracer
        self.name = name
        self.points = points

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.start)
        tr.name.append(tr._name_id(self.name))
        tr.parent.append(tr._stack[-1] if tr._stack else -1)
        tr.points.append(self.points)
        tr.end.append(0.0)
        tr._stack.append(self.index)
        tr.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.index] = time.perf_counter()
        tr._stack.pop()
        return False

    def points_add(self, n: int) -> None:
        """Credit work found out during the span (points, iterations) to it."""
        self.tracer.points[self.index] += n


class Tracer:
    """Records one span per traced call: name, parent, start, end and points."""

    enabled = True

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.counters: dict[str, int] = {}

    def span(self, name: str, points: int = 0) -> _Span:
        return _Span(self, name, points)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured elsewhere (a child process) under the open span."""
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(0)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn, counter: str | None = None):
        """Wrap a callable of one array argument: one span per call, with its size.

        With ``counter``, the size is also added to ``counters[counter]``, so
        one span can feed the point count of a second layer.
        """
        if counter is None:
            def wrapped(x, *args, **kwargs):
                with _Span(self, name, int(np.size(x))):
                    return fn(x, *args, **kwargs)
        else:
            def wrapped(x, *args, **kwargs):
                n = int(np.size(x))
                self.counters[counter] = self.counters.get(counter, 0) + n
                with _Span(self, name, n):
                    return fn(x, *args, **kwargs)

        return wrapped

    def with_fields(self, obj, **fields):
        """Copy a frozen dataclass with some fields replaced, without re-validating it."""
        out = copy.copy(obj)
        for key, value in fields.items():
            object.__setattr__(out, key, value)
        return out

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """The spans in ``[lo, hi)`` as numpy arrays, parents re-based to the slice."""
        hi = len(self.start) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        parent[parent < 0] = -1
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.int64),
            "parent": parent,
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi],
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi],
            "points": np.frombuffer(self.points, dtype=np.int64)[lo:hi],
        }

    def save(self, path) -> int:
        """Write every recorded span to ``path`` (.npz); returns the span count."""
        a = self.arrays()
        np.savez(path, names=np.asarray(a["names"], dtype=str), name=a["name"],
                 parent=a["parent"], start=a["start"], end=a["end"], points=a["points"])
        return len(a["start"])


def aggregate(spans: dict) -> dict:
    """Per span name: calls, points and self seconds; per (parent, child) name pair: calls and points.

    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent, so this is the part of
    its interval no child covers.
    """
    names = spans["names"]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    n_names = len(names)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    calls = np.bincount(name, minlength=n_names)
    points = np.bincount(name, weights=spans["points"], minlength=n_names)
    self_s = np.bincount(name, weights=dur - child, minlength=n_names)
    pair = name[parent[has_parent]] * n_names + name[has_parent]
    pair_calls = np.bincount(pair, minlength=n_names * n_names)
    pair_points = np.bincount(pair, weights=spans["points"][has_parent],
                              minlength=n_names * n_names)
    return {
        "calls": {names[i]: int(calls[i]) for i in range(n_names) if calls[i]},
        "points": {names[i]: int(points[i]) for i in range(n_names) if calls[i]},
        "self_s": {names[i]: float(self_s[i]) for i in range(n_names) if calls[i]},
        "children": {(names[k // n_names], names[k % n_names]):
                     {"calls": int(pair_calls[k]), "points": int(pair_points[k])}
                     for k in np.flatnonzero(pair_calls)},
    }
