"""Aggregated metrics over merged traces: span statistics, counters, gauges.

:class:`MetricsReport` condenses the raw event streams of one or more
per-rank tracers into the numbers benchmarks and experiment reports consume:
per-span-name duration statistics (count, total, mean, p50, p95, max —
aggregated across ranks), summed counter totals, and last-value gauges.
``to_dict()`` emits a plain JSON-ready structure; ``stage_summary()`` offers
the ``{stage: mean_seconds}`` mapping Figure-7-style consumers read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Union

import numpy as np

from .tracer import Tracer

__all__ = ["SpanStats", "MetricsReport"]


@dataclass(frozen=True)
class SpanStats:
    """Duration statistics for one span name (seconds, across all ranks)."""

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    max: float

    @classmethod
    def from_durations(cls, durations: Sequence[float]) -> "SpanStats":
        values = np.asarray(list(durations), dtype=np.float64)
        return cls(
            count=int(values.size),
            total=float(values.sum()),
            mean=float(values.mean()),
            p50=float(np.percentile(values, 50)),
            p95=float(np.percentile(values, 95)),
            max=float(values.max()),
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
        }


class MetricsReport:
    """Aggregated span/counter/gauge metrics for a set of per-rank tracers."""

    def __init__(
        self,
        spans: Dict[str, SpanStats],
        counters: Dict[str, float],
        gauges: Dict[str, float],
        ranks: Sequence[int],
    ) -> None:
        self.spans = spans
        self.counters = counters
        self.gauges = gauges
        self.ranks = sorted(set(int(r) for r in ranks))

    @classmethod
    def from_tracers(cls, tracers: Union[Tracer, Sequence[Tracer]]) -> "MetricsReport":
        tracer_list = [tracers] if isinstance(tracers, Tracer) else list(tracers)
        durations: Dict[str, List[float]] = {}
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        ranks: List[int] = []
        for tracer in tracer_list:
            ranks.append(tracer.rank)
            for span in tracer.spans:
                durations.setdefault(span.name, []).append(span.duration)
            for name, value in tracer.counters().items():
                counters[name] = counters.get(name, 0.0) + value
            # Gauges are per-rank last-value samples; across ranks we keep the
            # last writer in rank order (documented, deterministic).
            gauges.update(tracer.gauges())
        spans = {name: SpanStats.from_durations(values) for name, values in sorted(durations.items())}
        return cls(spans=spans, counters=dict(sorted(counters.items())), gauges=dict(sorted(gauges.items())), ranks=ranks)

    # ----------------------------------------------------------------- access
    def span_names(self) -> List[str]:
        return list(self.spans)

    def total(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.total if stats else 0.0

    def mean(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.mean if stats else 0.0

    def count(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.count if stats else 0

    def stage_summary(self, prefix: str = "kfac/", per_call: bool = True) -> Dict[str, float]:
        """``{stage: mean_or_total_seconds}`` for span names under ``prefix``.

        Stage names are reported without the prefix: ``kfac/precondition``
        becomes ``precondition``, one entry per Figure-7 column.
        """
        out: Dict[str, float] = {}
        for name, stats in self.spans.items():
            if name.startswith(prefix):
                out[name[len(prefix):]] = stats.mean if per_call else stats.total
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-ready structure (the ``metrics`` block of BENCH files)."""
        return {
            "ranks": self.ranks,
            "spans": {name: stats.to_dict() for name, stats in self.spans.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def format_rows(self) -> List[List[Any]]:
        """Table rows (name, count, mean ms, p50 ms, p95 ms, max ms) for printing."""
        return [
            [name, stats.count, round(stats.mean * 1e3, 3), round(stats.p50 * 1e3, 3),
             round(stats.p95 * 1e3, 3), round(stats.max * 1e3, 3)]
            for name, stats in self.spans.items()
        ]
