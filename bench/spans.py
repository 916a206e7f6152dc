"""Span tracing from outside the package: patch, record, restore, self time.

``Tracer`` replaces named callables with wrappers that record one span per
call: ``(span_id, parent_id, name, start, end)``.  Each thread keeps its own
stack, so the parent of a span is the innermost traced call open on the same
thread.  Every patch is made where the caller looks the name up (a module
global such as ``dvrsgd.worker.vr_gradient`` or a class attribute such as
``ParamServer.gate_pull``), and ``Tracer.restore`` puts every original back.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (``self_times``).
"""

import itertools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times"]


class Tracer:
    """Record spans for a set of patched callables until ``restore``."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, name: str, *, before=None, after=None):
        """Trace ``owner.attr`` as span ``name``.

        ``before(args)`` runs ahead of the call and ``after(args, result)``
        behind it, both outside the span, so counters cost no span time.
        """
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, before, after))

    def _wrap(self, fn, name, before, after):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if before is not None:
                before(args)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def restore(self):
        """Put every patched original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self time and call count.

    Self time of a span is its duration minus the part of its interval that
    its direct children cover, each child clipped to the parent.
    """
    by_id = {sid: (start, end) for sid, _, _, start, end in spans}
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None and parent in by_id:
            lo, hi = by_id[parent]
            children[parent].append((max(start, lo), min(end, hi)))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end in spans:
        kids = [(lo, hi) for lo, hi in children.get(sid, ()) if hi > lo]
        self_s[name] += (end - start) - _covered(kids)
        calls[name] += 1
    return dict(self_s), dict(calls)
