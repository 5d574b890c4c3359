"""Measured communication time from trace data.

:func:`repro.kfac.model_comm_schedule` *models* the collective traffic of a
K-FAC configuration.  This module measures the same quantities from what
actually happened: every nonblocking collective records a post→finish span
(category ``"comm"``) on its rank's tracer, and a rank's measured comm time
is the measure of the **union** of its comm intervals -- concurrent buckets
are in flight simultaneously, so this is wall-clock occupancy, not a
double-counted sum.  Every collective is posted after backward (Listing 1),
so none of it hides behind backward compute
(``tests/test_observability.py::TestTracedTrainingArtifacts::test_no_collective_is_in_flight_during_backward``).
:class:`MeasuredCommSchedule` mirrors the shape of
:class:`repro.kfac.CommSchedule` (busiest-rank time, message/byte totals) so
benchmarks can print modeled and measured columns side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from .tracer import Tracer

__all__ = ["MeasuredCommSchedule", "measured_comm_schedule", "merge_intervals"]


Interval = Tuple[float, float]


def merge_intervals(intervals: Sequence[Interval]) -> List[Interval]:
    """Union of possibly-overlapping intervals as a sorted disjoint list."""
    pruned = sorted((float(a), float(b)) for a, b in intervals if b > a)
    merged: List[Interval] = []
    for start, end in pruned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class MeasuredCommSchedule:
    """Measured counterpart of :class:`repro.kfac.CommSchedule`.

    Times are seconds.  ``comm_time`` is the busiest rank's (the rank with the
    largest comm-interval union — the one that bounds the iteration, as in
    the model); ``messages`` and ``comm_bytes`` sum each rank's posted
    collective buckets, so a world-wide allreduce observed by 4 ranks counts 4
    rank-side messages — divide by the participation if a model-comparable
    count is needed.  ``per_rank`` carries every rank's figures.
    """

    world_size: int
    messages: int
    comm_bytes: int
    comm_time: float
    busiest_rank: int
    per_rank: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "world_size": self.world_size,
            "messages": self.messages,
            "comm_bytes": self.comm_bytes,
            "comm_time": self.comm_time,
            "busiest_rank": self.busiest_rank,
            "per_rank": {str(rank): dict(stats) for rank, stats in self.per_rank.items()},
        }


def measured_comm_schedule(
    tracers: Union[Tracer, Sequence[Tracer]], comm_category: str = "comm"
) -> MeasuredCommSchedule:
    """Measured communication per rank from per-rank traces.

    ``comm_category`` selects the collective spans (post→finish intervals).
    """
    tracer_list = [tracers] if isinstance(tracers, Tracer) else list(tracers)
    per_rank: Dict[int, Dict[str, float]] = {}
    for tracer in tracer_list:
        comm_spans = [s for s in tracer.spans if s.category == comm_category]
        comm_union = merge_intervals([(s.start, s.end) for s in comm_spans])
        per_rank[tracer.rank] = {
            "messages": len(comm_spans),
            "comm_bytes": sum(int(s.attrs.get("nbytes", 0)) for s in comm_spans),
            "comm_time": sum(end - start for start, end in comm_union),
        }
    busiest = max(per_rank, key=lambda rank: per_rank[rank]["comm_time"]) if per_rank else -1
    return MeasuredCommSchedule(
        world_size=len(tracer_list),
        messages=sum(stats["messages"] for stats in per_rank.values()),
        comm_bytes=sum(stats["comm_bytes"] for stats in per_rank.values()),
        comm_time=float(per_rank[busiest]["comm_time"]) if per_rank else 0.0,
        busiest_rank=busiest,
        per_rank=per_rank,
    )
