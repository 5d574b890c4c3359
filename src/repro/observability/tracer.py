"""Structured per-rank tracing: nestable spans, instant events, counters, gauges.

A :class:`Tracer` records what one rank of the training program did and
*when*, on a shared monotonic clock (``time.perf_counter``), so that the
recordings of every rank of a :class:`~repro.distributed.threaded.ThreadedWorld`
can be merged onto one timeline afterwards.  Three event kinds are recorded:

* **spans** — named intervals with attributes.  Synchronous spans come from
  the :meth:`Tracer.span` context manager and nest on a per-tracer stack
  (the recorded ``depth`` reproduces the call structure); *asynchronous*
  spans — nonblocking collectives that start at post time and end when the
  result is awaited, overlapping whatever the rank computes in between —
  are recorded with :meth:`Tracer.record_span` and carry a ``lane`` tag
  instead of a stack depth.
* **instants** — zero-duration marks (a bucket was posted, a factor refresh
  was skipped, damping changed), with attributes.
* **counters / gauges** — a monotonically accumulated value per name
  (:meth:`counter_add`) and a last-value-wins sample per name
  (:meth:`gauge_set`).

Counters and gauges are always recorded: they are the rank's one bookkeeping
registry (the communicator counts its collectives there, the preconditioner
its refresh decisions).  Spans and instants are recorded only while
:attr:`Tracer.enabled` is set; otherwise :meth:`Tracer.span` hands back one
shared, reusable null context manager, so instrumented code pays a single
call when tracing is off -- and, by construction, numerics are untouched
either way (the parity tests assert bitwise-identical trajectories with
tracing on and off).

One tracer instance is bound to one rank: each communicator
(:class:`~repro.distributed.SingleProcessCommunicator`,
:class:`~repro.distributed.ThreadedCommunicator`) builds its rank's tracer,
enabled when ``REPRO_TRACE=1`` is set, and everything that runs on the rank
records into ``comm.tracer``.  The instances are merged at export time
(:func:`repro.observability.export.to_chrome_trace`,
:meth:`repro.observability.metrics.MetricsReport.from_tracers`).  All
mutation is lock-protected, so a tracer shared across helper threads of one
rank stays consistent.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "InstantRecord",
    "Tracer",
    "default_tracing",
]


def default_tracing() -> bool:
    """Whether tracing is enabled by default, overridable via environment.

    Setting ``REPRO_TRACE=1`` (or ``true``/``yes``/``on``) enables the tracer
    every communicator builds for its rank -- used by the CI trace-smoke job
    to exercise the instrumented stack end to end without code changes.
    """
    return os.environ.get("REPRO_TRACE", "").strip().lower() in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class SpanRecord:
    """One recorded interval on a rank's timeline."""

    name: str
    category: str
    start: float  # perf_counter seconds
    end: float
    rank: int
    #: Nesting depth on the synchronous span stack; None for async spans.
    depth: Optional[int] = None
    #: Async lane tag (e.g. ``"comm"``); None for synchronous stack spans.
    lane: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "SpanRecord") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class InstantRecord:
    """One zero-duration mark on a rank's timeline."""

    name: str
    category: str
    ts: float
    rank: int
    attrs: Dict[str, Any] = field(default_factory=dict)


#: What :meth:`Tracer.span` returns while tracing is off: one reusable context that records nothing.
_IDLE = contextlib.nullcontext()


class _ActiveSpan:
    """Re-entrant context manager for one :meth:`Tracer.span` invocation."""

    __slots__ = ("_tracer", "name", "category", "attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0

    def __enter__(self) -> "_ActiveSpan":
        self._start, self._depth = self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)
        return None


class Tracer:
    """Records spans, instants, counters and gauges for one rank.

    Parameters
    ----------
    rank:
        The rank this tracer's events belong to.  All events of one tracer
        carry this rank; merge tracers of different ranks at export time.
    clock:
        Monotonic time source (seconds); defaults to ``time.perf_counter``,
        which is process-global and therefore directly comparable across the
        rank threads of a :class:`~repro.distributed.threaded.ThreadedWorld`.

    :attr:`enabled` (default on; a communicator's tracer follows
    :func:`default_tracing`) gates spans and instants only.
    """

    enabled = True

    def __init__(self, rank: int = 0, clock=time.perf_counter) -> None:
        self.rank = int(rank)
        self._clock = clock
        self._lock = threading.Lock()
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._stack: List[_ActiveSpan] = []

    # ------------------------------------------------------------------ clock
    def now(self) -> float:
        """Current timestamp on the trace clock (seconds)."""
        return self._clock()

    # ------------------------------------------------------------------ spans
    def span(self, name: str, category: str = "", **attrs: Any):
        """Context manager recording a synchronous (stack-nested) span (a shared no-op one when disabled)."""
        if not self.enabled:
            return _IDLE
        return _ActiveSpan(self, name, category, attrs)

    def _push(self, active: _ActiveSpan) -> Tuple[float, int]:
        with self._lock:
            depth = len(self._stack)
            self._stack.append(active)
            return self._clock(), depth

    def _pop(self, active: _ActiveSpan) -> None:
        end = self._clock()
        with self._lock:
            if not self._stack or self._stack[-1] is not active:
                raise RuntimeError(
                    f"span {active.name!r} exited out of order; spans must close innermost-first"
                )
            self._stack.pop()
            self.spans.append(
                SpanRecord(
                    name=active.name,
                    category=active.category,
                    start=active._start,
                    end=end,
                    rank=self.rank,
                    depth=active._depth,
                    attrs=active.attrs,
                )
            )

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        lane: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Record an externally timed interval (e.g. a nonblocking collective).

        ``start``/``end`` must come from this tracer's clock (:meth:`now`).
        Async spans routinely overlap each other and the synchronous stack;
        tag them with a ``lane`` so exporters can place them on their own
        track.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts ({end} < {start})")
        if not self.enabled:
            return
        with self._lock:
            self.spans.append(
                SpanRecord(
                    name=name,
                    category=category,
                    start=float(start),
                    end=float(end),
                    rank=self.rank,
                    depth=None,
                    lane=lane,
                    attrs=attrs,
                )
            )

    # --------------------------------------------------------------- instants
    def instant(self, name: str, category: str = "", **attrs: Any) -> None:
        """Record a zero-duration mark at the current time (nothing when disabled)."""
        if not self.enabled:
            return
        ts = self._clock()
        with self._lock:
            self.instants.append(
                InstantRecord(name=name, category=category, ts=ts, rank=self.rank, attrs=attrs)
            )

    # ----------------------------------------------------- counters and gauges
    def counter_add(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto the named monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def gauge_set(self, name: str, value: float) -> None:
        """Record the latest sample of the named gauge (last value wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def counters(self) -> Dict[str, float]:
        """Snapshot of all counter totals."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        """Snapshot of the latest gauge values."""
        with self._lock:
            return dict(self._gauges)

    # ------------------------------------------------------------------ admin
    @property
    def open_spans(self) -> int:
        """Spans entered but not yet exited (should be 0 between steps)."""
        with self._lock:
            return len(self._stack)

    def reset(self) -> None:
        """Drop every recorded event and counter (the span stack must be empty)."""
        with self._lock:
            if self._stack:
                raise RuntimeError("cannot reset a tracer with open spans")
            self.spans.clear()
            self.instants.clear()
            self._counters.clear()
            self._gauges.clear()
