"""Readers for a rank's registry (``comm.tracer``): communication counts and K-FAC refresh decisions."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

OPS = ("allreduce", "broadcast")


def comm_counts(tracer) -> Dict[str, Tuple[int, int, int]]:
    """``{op: (messages, bytes, tensors)}`` the rank's communicator counted."""
    counters = tracer.counters()
    return {
        op: tuple(int(counters.get(f"comm/{op}/{what}", 0)) for what in ("messages", "bytes", "tensors"))
        for op in OPS
    }


def total_messages(tracer) -> int:
    return sum(messages for messages, _, _ in comm_counts(tracer).values())


def total_bytes(tracer) -> int:
    return sum(nbytes for _, nbytes, _ in comm_counts(tracer).values())


def layer_events(tracer, event: str, layers: Iterable[str]) -> Dict[str, int]:
    """``kfac/<event>/<layer>`` per layer, 0 where nothing was counted."""
    counters = tracer.counters()
    return {name: int(counters.get(f"kfac/{event}/{name}", 0)) for name in layers}


def event_total(pre, event: str) -> int:
    """``kfac/<event>`` summed over the preconditioner's layers, from its rank's registry."""
    return sum(layer_events(pre.tracer, event, pre.layers).values())
