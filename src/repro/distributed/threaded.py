"""In-process multi-rank backend: one thread per rank, real data exchange.

Each rank runs the same SPMD program on its own thread (exactly as each GPU
process would with ``torch.distributed``).  Collectives rendezvous through a
shared slot table keyed by ``(group, per-group sequence number)``: all ranks
in a group issue their collectives in the same order, so matching calls find
each other without any global coordinator.  The backend moves real NumPy data
(so correctness properties such as "all replicas stay bit-identical" can be
tested), and each rank counts the collectives that complete on it in its
communicator's tracer (:mod:`repro.distributed.backend`).  When one rank's
program raises, :func:`run_spmd` aborts the world: the ranks blocked in a
collective or the barrier wake and raise, and so does every later post, so a
failing SPMD program fails at once instead of after the collective timeout.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitizer import CollectiveSanitizer, SanitizerError, capture_call_site, sanitize_enabled
from .backend import Communicator, CompletedWork, WorkHandle, WorkHandleError, rank_tracer

__all__ = ["ThreadedWorld", "ThreadedCommunicator", "ThreadedWork", "run_spmd"]


class _CollectiveSlot:
    """Rendezvous point for a single collective operation."""

    def __init__(self, group_size: int) -> None:
        self.group_size = group_size
        self.values: Dict[int, np.ndarray] = {}
        self.result: Optional[np.ndarray] = None
        self.ready = threading.Event()
        self.consumed = 0


class ThreadedWork(WorkHandle):
    """In-flight collective on a :class:`ThreadedWorld`.

    The issuing rank's contribution is already posted to the rendezvous slot,
    so other ranks can make progress while this rank computes; ``wait()``
    blocks only until the remaining ranks arrive, and counts the collective
    in the rank's tracer the first time it returns.
    """

    def __init__(
        self, comm: "ThreadedCommunicator", op: str, key: Tuple, slot: _CollectiveSlot, fused_count: int
    ) -> None:
        self._comm = comm
        self._world = comm._world
        self._op = op
        self._key = key
        self._rank = comm.rank
        self._slot = slot
        self._fused_count = fused_count
        self._result: Optional[np.ndarray] = None
        self._finished = False
        self._site = capture_call_site() if self._world.sanitizer is not None else None

    def is_done(self) -> bool:
        return self._finished or self._slot.ready.is_set()

    def wait(self) -> np.ndarray:
        if not self._finished:
            self._result = self._world.finish_collective(self._op, self._key, self._rank, self._slot)
            self._finished = True
            tracer = self._comm.tracer
            tracer.counter_add(f"comm/{self._op}/messages")
            tracer.counter_add(f"comm/{self._op}/bytes", self._result.nbytes)
            tracer.counter_add(f"comm/{self._op}/tensors", self._fused_count)
        return self._result

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> np.ndarray:
        if not self._finished:
            raise WorkHandleError(
                f"result of {self._op} posted at {self._site or 'unknown site'} "
                "accessed before finish()/wait(); the collective is still in flight"
            )
        return self._result

    def __del__(self) -> None:
        # Under sanitize mode, a posted-but-never-finished handle is lost
        # communication: the peers' matching calls will block forever.
        try:
            if self._finished or self._world.aborted_by is not None:  # an aborted world leaves posts unfinished
                return
            sanitizer = getattr(self._world, "sanitizer", None)
            if sanitizer is None:
                return
            sanitizer.on_leaked(self._rank)
            warnings.warn(
                f"WorkHandle for {self._op} (posted at {self._site or 'unknown site'}) "
                "was garbage-collected without finish(); the collective was never "
                "completed on this rank",
                ResourceWarning,
                stacklevel=2,
            )
        except Exception:  # interpreter shutdown: modules may be half-torn-down
            pass


class ThreadedWorld:
    """Shared state for an in-process world of ``world_size`` ranks.

    With ``sanitize=True`` (default: the ``REPRO_SANITIZE`` env toggle) a
    :class:`~repro.analysis.sanitizer.CollectiveSanitizer` is attached:
    every ``post_collective`` is cross-checked against the other ranks'
    schedules, barriers verify per-group collective counts, and a violation
    *poisons* the world — all blocked ranks are woken with the structured
    :class:`~repro.analysis.sanitizer.SanitizerError` instead of deadlocking.
    """

    def __init__(self, world_size: int, timeout: float = 60.0, sanitize: Optional[bool] = None) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.timeout = timeout
        self._lock = threading.Lock()
        self._slots: Dict[Tuple, _CollectiveSlot] = {}
        self._poisoned: Optional[SanitizerError] = None
        self._aborted_by: Optional[int] = None
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer: Optional[CollectiveSanitizer] = None
        if sanitize:
            self.sanitizer = CollectiveSanitizer(world_size)
            self.sanitizer.bind_poison(self._poison)
            self._barrier = threading.Barrier(world_size, action=self.sanitizer.barrier_check)
        else:
            self._barrier = threading.Barrier(world_size)

    def _poison(self, error: SanitizerError, abort_barrier: bool = True) -> None:
        """Fail fast on a sanitizer violation: wake every blocked rank.

        Pending rendezvous waiters are released (they re-check ``_poisoned``
        before trusting the slot) and the barrier is broken, so a divergent
        schedule surfaces as a raised error on every rank instead of a
        timeout/deadlock.  ``abort_barrier=False`` is used when the violation
        is raised from inside the barrier action itself (the action holds the
        barrier's internal lock, and raising there already breaks it).
        """
        with self._lock:
            self._poisoned = error
            self._wake_locked()
        if abort_barrier:
            self._barrier.abort()

    def _check_poisoned(self) -> None:
        if self._poisoned is not None and self.sanitizer is not None:
            raise self.sanitizer.propagated()

    @property
    def aborted_by(self) -> Optional[int]:
        """The rank whose failure aborted the world (the first to call :meth:`abort`), or None."""
        return self._aborted_by

    def abort(self, rank: int) -> None:
        """Fail fast after ``rank``'s program raised, with the sanitizer on or off.

        Every rank waiting on a collective or in the barrier wakes and raises,
        and every later post raises, instead of waiting out the timeout for a
        rank that will never arrive.  Idempotent; the first caller is kept.
        """
        with self._lock:
            if self._aborted_by is None:
                self._aborted_by = rank
            self._wake_locked()
        self._barrier.abort()

    def _wake_locked(self) -> None:
        """Release every pending rendezvous (the waiters re-check the world's state before trusting a slot)."""
        for slot in self._slots.values():
            slot.ready.set()

    def _check_aborted(self) -> None:
        if self._aborted_by is not None:
            raise RuntimeError(f"world aborted: rank {self._aborted_by} failed")

    def communicator(self, rank: int) -> "ThreadedCommunicator":
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")
        comm = ThreadedCommunicator(self, rank)
        if self.sanitizer is not None:
            self.sanitizer.attach_tracer(rank, comm.tracer)
        return comm

    # ------------------------------------------------------------- internals
    def _slot(self, key: Tuple, group_size: int) -> _CollectiveSlot:
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = _CollectiveSlot(group_size)
                self._slots[key] = slot
            return slot

    def _release(self, key: Tuple, slot: _CollectiveSlot) -> None:
        with self._lock:
            slot.consumed += 1
            if slot.consumed >= slot.group_size:
                self._slots.pop(key, None)

    def post_collective(
        self,
        op: str,
        key: Tuple,
        rank: int,
        group: Tuple[int, ...],
        value: Optional[np.ndarray],
        reducer: Optional[Callable[[List[np.ndarray]], np.ndarray]],
        src: Optional[int] = None,
        fused_count: int = 1,
    ) -> _CollectiveSlot:
        """Post this rank's contribution without blocking; returns the slot.

        The rank whose post completes the group computes the result and
        releases every waiter.
        """
        if self.sanitizer is not None:
            self._check_poisoned()
            # key = (op, group, per-group seq): the seq pairs this post with
            # the other ranks' matching calls, so divergence is caught here —
            # at post time — rather than as a downstream deadlock.
            self.sanitizer.on_post(
                rank=rank,
                op=op,
                group=group,
                seq=key[-1],
                src=src,
                value=value,
                fused_count=fused_count,
            )
        slot = self._slot(key, len(group))
        is_producer_complete = False
        with self._lock:
            # Under the lock abort() wakes the slots with: a post either sees the abort or is woken by it.
            self._check_aborted()
            if value is not None:
                slot.values[rank] = value
            if reducer is not None:
                is_producer_complete = len(slot.values) == len(group)
            else:
                is_producer_complete = src in slot.values
            if is_producer_complete and not slot.ready.is_set():
                if reducer is not None:
                    slot.result = reducer([slot.values[r] for r in sorted(slot.values)])
                    # The contributions are folded in; holding them until the
                    # last rank collects would keep every rank's fused buffer
                    # alive beside the result.
                    slot.values.clear()
                else:
                    slot.result = slot.values[src]
                slot.ready.set()
        return slot

    def finish_collective(self, op: str, key: Tuple, rank: int, slot: _CollectiveSlot) -> np.ndarray:
        """Block until the posted collective completes and return a private copy."""
        completed = slot.ready.wait(self.timeout)
        if self._poisoned is not None:
            self._check_poisoned()
        self._check_aborted()
        if not completed:
            if self.sanitizer is not None:
                raise SanitizerError(
                    "collective-timeout",
                    f"collective {op} {key} timed out; some group member never "
                    "posted its matching call",
                    rank=rank,
                    details=self.sanitizer.pending_diagnostics(),
                )
            raise TimeoutError(f"collective {op} {key} timed out on rank {rank}")
        result = slot.result
        self._release(key, slot)
        if self.sanitizer is not None:
            self.sanitizer.on_finish(rank)
        return np.array(result, copy=True)

    def barrier(self) -> None:
        try:
            self._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            # Poisoned world or failed barrier_check on another thread: re-raise
            # the structured violation instead of the bare barrier error.
            self._check_poisoned()
            if self.sanitizer is not None and self.sanitizer.violation is not None:
                raise self.sanitizer.propagated() from None
            self._check_aborted()
            raise


class ThreadedCommunicator(Communicator):
    """Rank-local handle onto a :class:`ThreadedWorld`; ``tracer`` is the rank's registry."""

    def __init__(self, world: ThreadedWorld, rank: int) -> None:
        self._world = world
        self._rank = rank
        self.tracer = rank_tracer(rank)
        # Per-group sequence counters generate matching keys across ranks.
        self._sequence: Dict[Tuple[int, ...], int] = {}

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def world_size(self) -> int:
        return self._world.world_size

    @property
    def sanitizer(self) -> Optional[CollectiveSanitizer]:
        return self._world.sanitizer

    def _post(
        self,
        op: str,
        group: Tuple[int, ...],
        value: Optional[np.ndarray],
        reducer: Optional[Callable[[List[np.ndarray]], np.ndarray]] = None,
        src: Optional[int] = None,
        fused_count: int = 1,
    ) -> ThreadedWork:
        """Post this rank's side of the next collective on ``group`` (matched across ranks by its sequence number)."""
        count = self._sequence.get(group, 0)
        self._sequence[group] = count + 1
        key = (op, group, count)
        slot = self._world.post_collective(op, key, self._rank, group, value, reducer, src=src, fused_count=fused_count)
        return ThreadedWork(self, op, key, slot, fused_count)

    def _normalize_group(self, group: Optional[Sequence[int]]) -> Tuple[int, ...]:
        if group is None:
            return tuple(range(self.world_size))
        normalized = tuple(sorted(set(int(r) for r in group)))
        if self._rank not in normalized:
            raise ValueError(f"rank {self._rank} is not part of group {normalized}")
        return normalized

    @staticmethod
    def _mean_reducer(values: List[np.ndarray]) -> np.ndarray:
        # Elementwise mean over the rank axis: bitwise-identical whether the
        # tensors are reduced individually or coalesced into a fused buffer.
        # Accumulated in rank order straight into the one result buffer, which
        # for float32 / float64 is bit for bit ``np.mean(np.stack(values), axis=0)``
        # (a reduction over the leading axis adds the rows in order, then
        # divides) without the stacked temporary.  Other dtypes keep that
        # expression's accumulator (float32 for float16, float64 for integers)
        # and are cast back once at the end.
        dtype = values[0].dtype
        wide = np.promote_types(dtype, np.float32) if dtype.kind == "f" else np.float64
        out = np.add(values[0], values[1], dtype=wide)
        for value in values[2:]:
            out += value
        out /= len(values)
        return out.astype(dtype, copy=False)

    def allreduce_average(self, array: np.ndarray, group: Optional[Sequence[int]] = None) -> np.ndarray:
        return self.iallreduce_average(array, group=group).wait()

    def iallreduce_average(
        self, array: np.ndarray, group: Optional[Sequence[int]] = None, fused_count: int = 1
    ) -> WorkHandle:
        """Post an allreduce-average without waiting for the other ranks."""
        group_t = self._normalize_group(group)
        if len(group_t) == 1:
            return CompletedWork(array)
        return self._post("allreduce", group_t, np.asarray(array), reducer=self._mean_reducer, fused_count=fused_count)

    def broadcast(self, array: Optional[np.ndarray], src: int, group: Optional[Sequence[int]] = None) -> np.ndarray:
        return self.ibroadcast(array, src=src, group=group).wait()

    def ibroadcast(
        self,
        array: Optional[np.ndarray],
        src: int,
        group: Optional[Sequence[int]] = None,
        fused_count: int = 1,
    ) -> WorkHandle:
        """Post a broadcast without waiting; non-source ranks post an empty contribution."""
        group_t = self._normalize_group(group)
        if len(group_t) == 1:
            if array is None:
                raise ValueError("broadcast source value must be provided on the source rank")
            return CompletedWork(array)
        value = np.asarray(array) if (array is not None and self._rank == src) else None
        return self._post("broadcast", group_t, value, src=src, fused_count=fused_count)

    def barrier(self) -> None:
        self._world.barrier()


def run_spmd(
    world_size: int, fn: Callable[[ThreadedCommunicator], object], sanitize: Optional[bool] = None
) -> List[object]:
    """Run ``fn(comm)`` on every rank of a fresh :class:`ThreadedWorld` and collect results.

    A rank that raises aborts the world (:meth:`ThreadedWorld.abort`), so
    its peers raise at their next collective instead of waiting out the
    timeout; once every thread has finished, the caller gets a
    ``RuntimeError`` naming the first rank that failed, chained to that
    rank's exception.  ``sanitize`` forces the collective sanitizer on/off
    for this world (default: the ``REPRO_SANITIZE`` environment toggle).
    """
    world = ThreadedWorld(world_size, sanitize=sanitize)
    results: List[object] = [None] * world_size
    errors: List[Optional[BaseException]] = [None] * world_size

    def target(rank: int) -> None:
        try:
            results[rank] = fn(world.communicator(rank))
        except BaseException as exc:  # noqa: BLE001 - propagate to the main thread
            errors[rank] = exc
            world.abort(rank)

    threads = [threading.Thread(target=target, args=(rank,), daemon=True) for rank in range(world_size)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if world.aborted_by is not None:
        raise RuntimeError(f"rank {world.aborted_by} failed") from errors[world.aborted_by]
    return results
