"""Pure measurement helpers: outcomes, percentiles, spans, self time.

Nothing here touches a process, a socket or the ``repro`` package, so
``test_measure.py`` can pin the rules every reported number follows:

* a failed or wrong operation is *over the latency limit* — it ranks
  above every successful one in a percentile and reads at least the
  limit;
* failures are counted per request kind and per error class;
* a span's self time is its duration minus the part of it that its
  child spans cover.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import math
import socket
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Outcomes and percentiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """One attempted operation: its kind, latency and failure class.

    ``error`` is None for a correct reply, else the class from
    :func:`classify` (or ``"wrong_reply"``).
    """

    kind: str
    latency_s: float
    error: Optional[str] = None
    #: When the operation was due (or started), seconds into the phase.
    at_s: float = 0.0

    def ok(self, limit_s: float) -> bool:
        """Correct and within the workload's latency limit."""
        return self.error is None and self.latency_s <= limit_s


def classify(exc: BaseException) -> str:
    """The error class of a failed request.

    ``timeout`` (the client gave up waiting), ``serving_error.<code>``
    (a typed :class:`~repro.errors.ServingError` other than a lost
    connection) or ``connection_lost`` (reset, EOF, or the typed
    connection-lost error).  The ``repro`` error classes are matched
    by name so this module stays importable without the package.
    """
    if isinstance(exc, (socket.timeout, TimeoutError, asyncio.TimeoutError)):
        return "timeout"
    names = {cls.__name__ for cls in type(exc).__mro__}
    if "ConnectionLostError" in names:
        return "connection_lost"
    if "ServingError" in names:
        return f"serving_error.{getattr(exc, 'code', 'unknown')}"
    if isinstance(exc, (OSError, EOFError)):
        return "connection_lost"
    raise exc


def ranked_latencies(outcomes: Sequence[Outcome], limit_s: float) -> List[float]:
    """Latencies in rank order, every failure ranked over the limit.

    Successful operations sort by latency; failed ones follow all of
    them (whatever their own elapsed time) and read
    ``max(elapsed, limit)``, so a quick wrong answer can never improve
    a percentile.
    """
    ok = sorted(o.latency_s for o in outcomes if o.error is None)
    failed = sorted(max(o.latency_s, limit_s) for o in outcomes if o.error)
    return ok + failed


def percentile(ranked: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ranked values."""
    if not ranked:
        raise ValueError("percentile of no samples")
    pos = (len(ranked) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def windowed_percentile(
    outcomes: Sequence[Outcome], limit_s: float, q: float, window_s: float
) -> float:
    """Median over ``window_s`` windows of each window's ``q``-th percentile.

    A per-window tail describes the tail under steady load; the median
    across windows keeps one disturbed second (another tenant taking a
    CPU) from setting the whole run's figure.  Windows too short to
    hold ten samples beyond ``q`` (the run's ragged end) are skipped.
    """
    windows: Dict[int, List[Outcome]] = defaultdict(list)
    for outcome in outcomes:
        windows[int(outcome.at_s // window_s)].append(outcome)
    tails = [
        percentile(ranked_latencies(group, limit_s), q)
        for group in windows.values()
        if samples_beyond(len(group), q) >= 10
    ]
    if not tails:
        raise ValueError(f"no window holds ten samples beyond p{q:g}")
    return statistics.median(tails)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie above the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def failure_table(outcomes: Iterable[Outcome]) -> Dict[str, Dict[str, int]]:
    """``kind -> {"attempted": n, <error class>: count, ...}``."""
    table: Dict[str, Counter] = defaultdict(Counter)
    for outcome in outcomes:
        table[outcome.kind]["attempted"] += 1
        if outcome.error is not None:
            table[outcome.kind][outcome.error] += 1
    return {kind: dict(counts) for kind, counts in sorted(table.items())}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call: ``request`` groups the spans of one operation."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    The current span lives in a context variable, so nesting works the
    same in plain calls and in asyncio tasks (each task runs in its own
    copy of the context).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield
            return
        parent, parent_request = self._current.get()
        span_id = next(self._ids)
        request = request if request is not None else parent_request
        token = self._current.set((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``span_id -> duration minus the union its children cover``.

    Children are clipped to their parent's interval and overlapping
    children (concurrent calls under one parent) are merged first, so
    self time is never negative and never double-subtracts.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children[parent.span_id].append((lo, hi))
    result = {}
    for span in spans:
        covered, reach = 0.0, -math.inf
        for lo, hi in sorted(children[span.span_id]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        result[span.span_id] = span.duration - covered
    return result
