"""In-memory spans and the self-time arithmetic of the per-layer ledger.

A span records its name, start, end, parent and op id.  Spans stay in
memory while a traced run executes and are written out once, at the
end (:meth:`Tracer.dump`).  :func:`rollup` turns such a dump into
per-layer totals: a span's *self time* is its duration minus the part
of that interval its child spans cover.

Nothing here imports the program under test, so the unit tests run
without it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


class Span:
    """One timed call into a layer (or one op, for a root span)."""

    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 op) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict | None = None


class Tracer:
    """Collects spans from every thread of one process.

    Parents come from a per-thread stack of open spans.  ``op`` is the
    op every span opened from now on belongs to; the closed-loop
    workloads keep one op outstanding at a time, so one process-wide
    value also covers the reveal running on a server thread.  A span
    opened with no op belongs to its nearest ancestor's op.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        #: Counts made while no span was open (process totals).
        self.loose: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None, self.op)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def add(self, span: Span | None, name: str, value: float = 1) -> None:
        """Count ``value`` under ``name`` on ``span`` (a loose process
        total when there is no span)."""
        if span is None:
            bucket = self.loose
        else:
            if span.counts is None:
                span.counts = {}
            bucket = span.counts
        bucket[name] = bucket.get(name, 0) + value

    def dump(self) -> dict:
        """JSON-safe form: spans as ``[name, start, end, parent, op,
        counts]`` rows, parents as row indices (-1 for none)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [span.name, span.start, span.end,
             -1 if span.parent is None else index[id(span.parent)],
             span.op, span.counts]
            for span in self.spans
        ]
        return {"spans": rows, "loose": dict(self.loose)}


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if min(hi, b) > max(lo, a))
    total = 0.0
    run_lo = run_hi = None
    for a, b in clipped:
        if run_hi is not None and a <= run_hi:
            run_hi = max(run_hi, b)
            continue
        if run_hi is not None:
            total += run_hi - run_lo
        run_lo, run_hi = a, b
    if run_hi is not None:
        total += run_hi - run_lo
    return total


@dataclass
class Rollup:
    """Per-name totals over the spans of the kept ops."""

    self_s: dict[str, float] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: Summed duration of the op root spans, and the part of each root
    #: its top-level layer spans cover (the rest is unattributed).
    root_s: float = 0.0
    covered_s: float = 0.0


def rollup(rows: list, ops, roots=()) -> Rollup:
    """Self time, inclusive time, calls and counts per span name.

    A span belongs to the op of its nearest ancestor (itself included)
    that carries one.  Spans of an op in ``ops`` are kept; op-less
    spans (a heartbeat thread, say) are kept when they start between
    the first kept root's start and the last kept root's end.  A
    top-level span with an op counts as a child of that op's root,
    which is how a reveal on a server thread counts toward the op its
    client is waiting on.
    """
    ops = set(ops)
    roots = set(roots)
    resolved: list = []
    for _name, _start, _end, parent, op, _counts in rows:
        # Parents open before their children, so their op is resolved.
        resolved.append(resolved[parent] if op is None and parent >= 0
                        else op)

    root_rows: dict = {}
    for i, row in enumerate(rows):
        if row[0] in roots and resolved[i] in ops:
            root_rows.setdefault(resolved[i], []).append(i)
    all_roots = {i for members in root_rows.values() for i in members}
    window = None
    if all_roots:
        window = (min(rows[i][1] for i in all_roots),
                  max(rows[i][2] for i in all_roots))

    kept = [
        i for i, row in enumerate(rows)
        if resolved[i] in ops or (resolved[i] is None and window is not None
                                  and window[0] <= row[1] <= window[1])
    ]
    kept_set = set(kept)
    children: dict[int, list[tuple[float, float]]] = {}
    for i in kept:
        name, start, end, parent, _op, _counts = rows[i]
        if parent >= 0:
            if parent in kept_set:
                children.setdefault(parent, []).append((start, end))
        elif name not in roots:
            for root in root_rows.get(resolved[i], ()):
                children.setdefault(root, []).append((start, end))

    result = Rollup()
    for i in kept:
        name, start, end, _parent, _op, counts = rows[i]
        duration = end - start
        covered = covered_length(children.get(i, ()), start, end)
        result.self_s[name] = result.self_s.get(name, 0.0) + duration - covered
        result.total_s[name] = result.total_s.get(name, 0.0) + duration
        result.calls[name] = result.calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            result.counts[key] = result.counts.get(key, 0) + value
        if i in all_roots:
            result.root_s += duration
            result.covered_s += covered
    return result
