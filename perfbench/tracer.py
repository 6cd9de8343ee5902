"""In-memory span tracer that wraps the program's functions from outside.

Every wrapped call records one span: its name, start, end, parent span and
the id of the workload item it served.  Spans go into flat arrays (28 bytes
each) and are written out once, when the run ends.  Per-name aggregates are
kept on the fly:

- ``calls``: completed calls, including those that raised;
- ``total_s``: wall time of the outermost span of that name (a recursive
  call is not counted twice);
- ``self_s``: span duration minus the part covered by its child spans.
  The work is single-threaded and spans nest strictly, so the covered part
  is the sum of the direct children's durations.

A probe attached to a wrapped function adds counters (rows, bytes, cache
hits, cap rejects, ...) from the call's arguments, result or exception.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counters", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self.item = -1

    def enter(self, name: str) -> list:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self.stats[name].depth += 1
        frame = [sid, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = self.clock()
        self.span_start.append(frame[2])
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        sid, name, start, child = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        self.span_end[sid] = end
        dur = end - start
        st = self.stats[name]
        st.calls += 1
        st.self_s += dur - child
        st.depth -= 1
        if st.depth == 0:
            st.total_s += dur
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, name: str, fn, probe=None):
        """A callable that runs `fn` inside a span named `name`.

        `probe(stat, args, result, exc, token)` runs after the span
        closes; `probe.before(args)`, when present, runs before it opens
        and its return value is passed on as `token`.
        """
        tracer = self
        before = getattr(probe, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if probe is not None:
                    probe(tracer.stats[name], args, None, exc, token)
                raise
            tracer.exit(frame)
            if probe is not None:
                probe(tracer.stats[name], args, result, None, token)
            return result

        for attr in ("cache_info", "cache_clear"):  # keep lru_cache's API
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def count(self, name: str, fn):
        """Calls and total time of `fn`, with no span: for accessors called
        millions of times, where a span per call would cost more than the
        work.  Spans opened inside it get the caller's span as parent."""
        stat, clock = self.stats[name], self.clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.calls += 1
                stat.total_s += clock() - start

        return counted

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 start=np.asarray(self.span_start), end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent), item=np.asarray(self.span_item))

    @property
    def span_count(self) -> int:
        return len(self.span_start)


class Patches:
    """Replace attributes of modules and classes, and put the originals back.

    `patch_everywhere` also replaces every import-bound copy: a module that
    did ``from .classify import classify`` holds its own reference, which
    patching ``endotriv.classify`` alone would miss.
    """

    def __init__(self, package: str):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(self, original, new) -> None:
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.patch(mod, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
