"""Communicator abstractions.

A :class:`Communicator` is the rank-local handle used by DDP training and by
the K-FAC preconditioner for its collectives.  Two backends are provided:

* :class:`SingleProcessCommunicator` — the ``world_size == 1`` no-op backend
  (the "single-process" backend mentioned in paper section 3.4),
* :class:`~repro.distributed.threaded.ThreadedWorld` — an in-process
  multi-rank backend where every rank runs on its own thread and collectives
  really exchange data (used to validate that all distribution strategies
  produce identical training trajectories).

Each communicator builds its rank's one :class:`~repro.observability.Tracer`
(``comm.tracer``, an instance attribute): the backend counts every collective
that completes on the rank there -- ``comm/<op>/messages``, ``comm/<op>/bytes``
and ``comm/<op>/tensors`` (a fused bucket is one message carrying several
tensors; a group of one exchanges nothing and is not counted) -- and
everything else the rank runs records into the same registry.

Both backends additionally expose *nonblocking* collectives
(:meth:`Communicator.iallreduce_average` / :meth:`Communicator.ibroadcast`)
returning :class:`WorkHandle` objects with ``wait()`` / ``is_done()``; the
:mod:`repro.distributed.collectives` engine builds comm/compute overlap and
message fusion on top of them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..observability.tracer import Tracer, default_tracing

__all__ = [
    "Communicator",
    "SingleProcessCommunicator",
    "WorkHandle",
    "WorkHandleError",
    "CompletedWork",
]


class WorkHandleError(RuntimeError):
    """Misuse of a :class:`WorkHandle` (e.g. result read before ``finish()``)."""


class WorkHandle:
    """Handle onto an in-flight nonblocking collective.

    ``wait()`` blocks until the collective completes and returns the result
    array; ``is_done()`` polls without blocking.  ``wait()`` may be called
    multiple times (subsequent calls return the cached result), and
    ``finish()`` is the explicit idempotent alias for it.  Reading
    :attr:`result` before the handle is finished raises
    :class:`WorkHandleError` — the collective still owns the buffer.
    """

    def wait(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def is_done(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self) -> np.ndarray:
        """Complete the collective; idempotent (repeat calls return the cache)."""
        return self.wait()

    @property
    def finished(self) -> bool:
        """Whether the result is locally available (never blocks)."""
        return self.is_done()

    @property
    def result(self) -> np.ndarray:
        raise WorkHandleError(
            "WorkHandle.result accessed before finish()/wait(); the collective "
            "may still be in flight"
        )


class CompletedWork(WorkHandle):
    """An already-finished collective (used by synchronous fallbacks)."""

    def __init__(self, result: np.ndarray) -> None:
        self._result = result

    def wait(self) -> np.ndarray:
        return self._result

    def is_done(self) -> bool:
        return True

    @property
    def result(self) -> np.ndarray:
        return self._result


def rank_tracer(rank: int) -> Tracer:
    """The tracer a communicator builds for its rank: counting always, tracing when ``REPRO_TRACE`` says so."""
    tracer = Tracer(rank=rank)
    tracer.enabled = default_tracing()
    return tracer


class Communicator:
    """Rank-local interface for collective communication.

    A backend gives each instance a ``tracer`` attribute (see
    :func:`rank_tracer`); it is deliberately not declared here, so a wrapper
    that forwards unknown attributes reaches the wrapped backend's.
    """

    #: The attached runtime sanitizer, if any (see :mod:`repro.analysis`).
    #: Backends that support sanitization override this with a property.
    sanitizer = None

    @property
    def rank(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def world_size(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def allreduce_average(self, array: np.ndarray, group: Optional[Sequence[int]] = None) -> np.ndarray:
        raise NotImplementedError

    def broadcast(self, array: Optional[np.ndarray], src: int, group: Optional[Sequence[int]] = None) -> np.ndarray:
        raise NotImplementedError

    def barrier(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------- nonblocking collectives
    # Backends with true asynchrony override these; the defaults execute the
    # blocking collective eagerly and hand back an already-completed handle,
    # so engine code written against handles works on any Communicator.
    # Caveat: the fallbacks cannot thread fused_count into a backend's own
    # counters, so a sync-only backend that counts will count a fused bucket
    # as one tensor; override these to report fusion exactly.
    def iallreduce_average(
        self, array: np.ndarray, group: Optional[Sequence[int]] = None, fused_count: int = 1
    ) -> WorkHandle:
        """Nonblocking allreduce-average; returns a :class:`WorkHandle`."""
        return CompletedWork(self.allreduce_average(array, group=group))

    def ibroadcast(
        self,
        array: Optional[np.ndarray],
        src: int,
        group: Optional[Sequence[int]] = None,
        fused_count: int = 1,
    ) -> WorkHandle:
        """Nonblocking broadcast; returns a :class:`WorkHandle`."""
        return CompletedWork(self.broadcast(array, src=src, group=group))


class SingleProcessCommunicator(Communicator):
    """No-op communicator for single-process training (world size 1)."""

    def __init__(self) -> None:
        self.tracer = rank_tracer(0)

    @property
    def rank(self) -> int:
        return 0

    @property
    def world_size(self) -> int:
        return 1

    def allreduce_average(self, array: np.ndarray, group: Optional[Sequence[int]] = None) -> np.ndarray:
        return array

    def broadcast(self, array: Optional[np.ndarray], src: int, group: Optional[Sequence[int]] = None) -> np.ndarray:
        if array is None:
            raise ValueError("broadcast source value must be provided on the source rank")
        return array

    def barrier(self) -> None:
        return None
