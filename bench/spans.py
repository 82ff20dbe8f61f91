"""In-memory spans for the benchmark's traced runs, and the arithmetic on them.

A span is one call of a wrapped library function: a name, start and end
times (seconds from the child's start), the index of the span that was open
when it began (its parent), a small thread number, and a count of the work
it did (samples, cells, or 1). Spans are kept in a list while the CLI runs
and written once, when it ends.

A call made on a worker thread that has no span of its own open is the child
of whatever span the main thread has open, so the batches of the CLI thread
pool hang under the call that started the pool.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (name, start, end, parent, thread, count)
Span = Tuple[str, float, float, Optional[int], int, float]


class Recorder:
    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._threads[threading.get_ident()] = len(self._threads)
        return stack

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        """fn with a span around each call; count(args, result) gives the
        span's work count (default 1)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            rec = [name, time.perf_counter() - self.t0, 0.0, parent,
                   self._threads[threading.get_ident()], 1]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter() - self.t0
            if count is not None:
                rec[5] = count(args, result)
            return result

        return traced


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children may overlap one another (pool threads); the covered part is the
    length of the union of their intervals, clipped to the parent's."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append(s)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = _union_length(
            [(max(c[1], start), min(c[2], end)) for c in children[i] if c[2] > start and c[1] < end]
        )
        out.append((end - start) - covered)
    return out


def covered_time(spans: Sequence[Span]) -> float:
    """Length of the time during which at least one span was open. With all
    spans on one thread this equals the sum of their self times."""
    return _union_length([(s[1], s[2]) for s in spans])


def ancestors(spans: Sequence[Span], i: int):
    p = spans[i][3]
    while p is not None:
        yield spans[p][0]
        p = spans[p][3]


def tail_percentile(values: Sequence[float], ladder=(99.9, 99.0, 90.0)) -> Tuple[float, float]:
    """(q, value) for the highest q in the ladder that has at least ten
    samples above it; the median when none has."""
    n = len(values)
    for q in ladder:
        if n - _rank(q, n) >= 10:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def _rank(q: float, n: int) -> int:
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(q, len(values)) - 1]
