"""Unified tracing and metrics for the training stack.

The subsystem has four pieces:

* :class:`Tracer` — per-rank structured recording of spans, instant events,
  counters and gauges (:mod:`.tracer`);
* Chrome trace-event export and validation for Perfetto timelines
  (:mod:`.export`);
* :class:`MetricsReport` — p50/p95/max span statistics and counter totals
  aggregated across ranks (:mod:`.metrics`);
* :func:`measured_comm_schedule` — measured communication time, the union
  of each rank's comm spans, the observed counterpart of
  :func:`repro.kfac.model_comm_schedule` (:mod:`.overlap`).

Every rank has one tracer, built by its communicator: ``comm.tracer`` always
counts (the communicator's collectives, K-FAC's refresh decisions) and
records spans and instants once enabled -- ``REPRO_TRACE=1``, or
``comm.tracer.enabled = True``.  Training trajectories are bitwise identical
either way.
"""

from .export import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from .metrics import MetricsReport, SpanStats
from .overlap import MeasuredCommSchedule, measured_comm_schedule, merge_intervals
from .tracer import InstantRecord, SpanRecord, Tracer, default_tracing

__all__ = [
    "Tracer",
    "SpanRecord",
    "InstantRecord",
    "default_tracing",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "MetricsReport",
    "SpanStats",
    "MeasuredCommSchedule",
    "measured_comm_schedule",
    "merge_intervals",
]
