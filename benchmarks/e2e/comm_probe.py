"""Outside-in communication probe: a delegating ``Communicator`` that counts.

The benchmark hands the program under test a :class:`CommProbe` wrapped around
the real communicator.  Every collective the program posts goes through it, so
calls, payload bytes and time blocked are counted at the public
``Communicator`` / ``WorkHandle`` contract and keep working whatever
bookkeeping the repo keeps (or deletes) behind that contract.

Counting rules: a call counts when it is posted, whether or not the group has
another member (at world size 1 collectives are no-ops but the call path
still runs).  Allreduce bytes are the payload handed in; broadcast bytes are
the payload that came out (receivers hand in ``None``).  Blocked time is
wall-clock spent inside a blocking collective or inside ``wait``/``finish``
of a handle; posting a nonblocking collective is timed too, because on a
synchronous backend the post *is* the collective.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.distributed import Communicator, WorkHandle

__all__ = ["OPS", "CommProbe", "ProbedWork", "CommCounters"]

OPS = ("allreduce", "broadcast")


class CommCounters:
    """Calls, bytes and blocked seconds per collective op."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(OPS, 0)
        self.nbytes: Dict[str, int] = dict.fromkeys(OPS, 0)
        self.blocked_s = 0.0

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "nbytes": dict(self.nbytes), "blocked_s": self.blocked_s}

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """Counter movement between two :meth:`snapshot` results."""
        return {
            "calls": {op: after["calls"][op] - before["calls"][op] for op in OPS},
            "nbytes": {op: after["nbytes"][op] - before["nbytes"][op] for op in OPS},
            "blocked_s": after["blocked_s"] - before["blocked_s"],
        }


class ProbedWork(WorkHandle):
    """Wraps an in-flight handle; times ``wait`` and counts broadcast bytes on completion."""

    def __init__(self, inner: WorkHandle, counters: CommCounters, op: str, bytes_known: bool) -> None:
        self.inner = inner
        self.counters = counters
        self.op = op
        self.bytes_pending = not bytes_known

    def wait(self) -> np.ndarray:
        start = time.perf_counter()
        result = self.inner.wait()
        self.counters.blocked_s += time.perf_counter() - start
        if self.bytes_pending:
            self.bytes_pending = False
            self.counters.nbytes[self.op] += int(np.asarray(result).nbytes)
        return result

    def is_done(self) -> bool:
        return self.inner.is_done()

    @property
    def finished(self) -> bool:
        return self.inner.finished

    @property
    def result(self) -> np.ndarray:
        return self.inner.result

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class CommProbe(Communicator):
    """Delegating communicator: same results as ``inner``, plus :attr:`counters`."""

    def __init__(self, inner: Communicator) -> None:
        self.inner = inner
        self.counters = CommCounters()

    # ------------------------------------------------------------ forwarding
    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def world_size(self) -> int:
        return self.inner.world_size

    @property
    def sanitizer(self):
        # Declared on the base class, so __getattr__ alone would not forward it.
        return self.inner.sanitizer

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def barrier(self) -> None:
        self.inner.barrier()

    # -------------------------------------------------------------- blocking
    def allreduce_average(self, array: np.ndarray, group: Optional[Sequence[int]] = None) -> np.ndarray:
        self.counters.calls["allreduce"] += 1
        self.counters.nbytes["allreduce"] += int(np.asarray(array).nbytes)
        start = time.perf_counter()
        result = self.inner.allreduce_average(array, group=group)
        self.counters.blocked_s += time.perf_counter() - start
        return result

    def broadcast(self, array: Optional[np.ndarray], src: int, group: Optional[Sequence[int]] = None) -> np.ndarray:
        self.counters.calls["broadcast"] += 1
        start = time.perf_counter()
        result = self.inner.broadcast(array, src=src, group=group)
        self.counters.blocked_s += time.perf_counter() - start
        self.counters.nbytes["broadcast"] += int(np.asarray(result).nbytes)
        return result

    # ----------------------------------------------------------- nonblocking
    def iallreduce_average(
        self, array: np.ndarray, group: Optional[Sequence[int]] = None, fused_count: int = 1
    ) -> WorkHandle:
        self.counters.calls["allreduce"] += 1
        self.counters.nbytes["allreduce"] += int(np.asarray(array).nbytes)
        start = time.perf_counter()
        handle = self.inner.iallreduce_average(array, group=group, fused_count=fused_count)
        self.counters.blocked_s += time.perf_counter() - start
        return ProbedWork(handle, self.counters, "allreduce", bytes_known=True)

    def ibroadcast(
        self,
        array: Optional[np.ndarray],
        src: int,
        group: Optional[Sequence[int]] = None,
        fused_count: int = 1,
    ) -> WorkHandle:
        self.counters.calls["broadcast"] += 1
        start = time.perf_counter()
        handle = self.inner.ibroadcast(array, src=src, group=group, fused_count=fused_count)
        self.counters.blocked_s += time.perf_counter() - start
        return ProbedWork(handle, self.counters, "broadcast", bytes_known=False)
