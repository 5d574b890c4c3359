"""Runtime SPMD sanitizer: collective-schedule cross-checking and buffer races.

The async comm stack (:mod:`repro.distributed.collectives`, the backward-hook
:class:`~repro.training.pipeline.GradientPipeline`, the adaptive K-FAC
scheduler) rests on invariants no backend enforces:

* every rank posts the *same* collectives in the *same* order on the *same*
  groups (op, dtype, shape, fusion plan) — divergence means a silent
  mis-rendezvous or a deadlock;
* a bucket buffer handed to a nonblocking ``post()`` must not be touched
  until the matching ``finish()``/``wait()`` — touching it is a data race
  against the in-flight collective;
* every posted :class:`~repro.distributed.backend.WorkHandle` is eventually
  finished — a dropped handle is lost communication.

With ``REPRO_SANITIZE=1`` (or ``ThreadedWorld(..., sanitize=True)``) a
:class:`CollectiveSanitizer` is attached to the world and records each rank's
collective sequence ``(op, group, dtype, shape, nbytes, call-site)``.  Ranks
are cross-checked *as they post* (the rendezvous slot index pairs matching
calls, so the first divergent post raises immediately instead of deadlocking)
and again at barriers, where per-group sequence counts must agree.  The
companion :class:`BufferAccessChecker` epoch-stamps posted bucket buffers:
they are frozen (``writeable=False``) and fingerprinted between post and
finish, so both a write *through* the buffer and a mutation through a
pre-existing view are caught, each reported with the posting call-site.

Violations raise structured :class:`SanitizerError`\\ s and emit
``sanitize/*`` instant events through any attached per-rank tracer
(:mod:`repro.observability`).  With the sanitizer disabled no check runs and
training is bitwise identical; with it enabled only checks run — numerics are
untouched either way.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "sanitize_enabled",
    "capture_call_site",
    "SanitizerError",
    "CollectiveSanitizer",
    "BufferAccessChecker",
]


def sanitize_enabled() -> bool:
    """Whether the runtime sanitizer is on by default, via the environment.

    Setting ``REPRO_SANITIZE=1`` (or ``true``/``yes``/``on``) makes every
    :class:`~repro.distributed.threaded.ThreadedWorld` construct a
    :class:`CollectiveSanitizer` — the CI ``lint-and-sanitize`` job runs the
    whole suite this way.
    """
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in ("1", "true", "yes", "on")


#: Frames whose filename contains one of these fragments are machinery, not
#: the interesting "who asked for this collective" frame.
_INTERNAL_FRAGMENTS = (
    "repro/analysis/",
    "repro/distributed/",
    "repro\\analysis\\",
    "repro\\distributed\\",
)


def capture_call_site(extra_internal: Tuple[str, ...] = ()) -> str:
    """Best-effort ``file.py:line in func`` of the first non-machinery frame."""
    frame = sys._getframe(1)
    fragments = _INTERNAL_FRAGMENTS + extra_internal
    while frame is not None:
        filename = frame.f_code.co_filename
        if not any(fragment in filename for fragment in fragments):
            return f"{os.path.basename(filename)}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"


class SanitizerError(RuntimeError):
    """A structured SPMD-invariant violation.

    Attributes
    ----------
    kind:
        Machine-readable violation class: ``"schedule-divergence"``,
        ``"collective-timeout"``, ``"buffer-race"``, ``"use-before-finish"``,
        ``"lost-comm"`` or ``"plan-divergence"``.
    rank:
        The rank that detected the violation (None for world-level checks).
    call_site:
        ``file.py:line in func`` of the offending operation when known.
    details:
        Free-form structured context (per-rank signatures, pending keys, ...).
    """

    def __init__(
        self,
        kind: str,
        message: str,
        rank: Optional[int] = None,
        call_site: Optional[str] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.rank = rank
        self.call_site = call_site
        self.details = dict(details or {})
        parts = [f"[{kind}]"]
        if rank is not None:
            parts.append(f"rank {rank}:")
        parts.append(message)
        if call_site:
            parts.append(f"(at {call_site})")
        super().__init__(" ".join(parts))


def _value_signature(value: Optional[np.ndarray]) -> Optional[Tuple[str, Tuple[int, ...], int]]:
    if value is None:
        return None
    array = np.asarray(value)
    return (str(array.dtype), tuple(array.shape), int(array.nbytes))


class _SlotSignature:
    """First-poster signature of one rendezvous slot, compared against later posters."""

    __slots__ = ("rank", "op", "src", "fused_count", "value_sig", "call_site", "phase", "seen")

    def __init__(self, rank, op, src, fused_count, value_sig, call_site, phase) -> None:
        self.rank = rank
        self.op = op
        self.src = src
        self.fused_count = fused_count
        self.value_sig = value_sig
        self.call_site = call_site
        self.phase = phase
        self.seen = 1


class BufferAccessChecker:
    """Epoch-stamped in-flight buffer tracking (use/mutate-before-finish).

    ``stamp()`` freezes an array posted to a nonblocking collective
    (``writeable=False`` where the array allows it) and fingerprints its
    bytes; ``release()`` re-verifies the fingerprint when the collective is
    finished and unfreezes the array.  A mutation through any alias between
    the two raises a :class:`SanitizerError` naming the posting call-site.
    ``assert_finished()`` is the read-side guard: consumers (and tests) call
    it before touching data a pending collective still owns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        # token (epoch) -> (key, array, digest, restore_writeable, call_site, tracer)
        self._pending: Dict[int, Tuple[str, np.ndarray, bytes, bool, str, Any]] = {}

    @staticmethod
    def _digest(array: np.ndarray) -> bytes:
        return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).digest()

    def stamp(self, key: str, array: np.ndarray, tracer: Any = None) -> int:
        """Mark ``array`` as owned by an in-flight collective; returns a token."""
        call_site = capture_call_site()
        digest = self._digest(array)
        restore = False
        try:
            if array.flags.writeable:
                array.flags.writeable = False
                restore = True
        except ValueError:
            restore = False  # not freezable (e.g. a view of a read-only base)
        with self._lock:
            self._epoch += 1
            token = self._epoch
            self._pending[token] = (key, array, digest, restore, call_site, tracer)
        return token

    def release(self, token: int) -> None:
        """Finish the stamped epoch: verify the bytes and unfreeze the array."""
        with self._lock:
            entry = self._pending.pop(token, None)
        if entry is None:
            return  # release is idempotent, mirroring WorkHandle.finish()
        key, array, digest, restore, call_site, tracer = entry
        if restore:
            array.flags.writeable = True
        if self._digest(array) != digest:
            self._emit(tracer, kind="buffer-race", key=key, posted_at=call_site)
            raise SanitizerError(
                "buffer-race",
                f"bucket buffer {key!r} was mutated between post() and finish(); "
                f"it was posted at {call_site} and must stay untouched while in flight",
                call_site=call_site,
                details={"key": key},
            )

    def assert_finished(self, key: str, tracer: Any = None) -> None:
        """Raise if any in-flight collective still owns a buffer stamped ``key``."""
        with self._lock:
            open_entries = [entry for entry in self._pending.values() if entry[0] == key]
        if open_entries:
            posted_at = open_entries[0][4]
            reader = capture_call_site()
            self._emit(tracer or open_entries[0][5], kind="use-before-finish", key=key, read_at=reader)
            raise SanitizerError(
                "use-before-finish",
                f"buffer {key!r} read at {reader} while its collective (posted at "
                f"{posted_at}) has not finished; call finish()/drain() first",
                call_site=reader,
                details={"key": key, "posted_at": posted_at},
            )

    def pending_keys(self) -> List[str]:
        with self._lock:
            return [entry[0] for entry in self._pending.values()]

    @staticmethod
    def _emit(tracer: Any, **attrs: Any) -> None:
        if tracer is not None:
            tracer.instant("sanitize/violation", category="sanitize", **attrs)


class CollectiveSanitizer:
    """Cross-rank collective-schedule checker for one world.

    One instance is shared by every rank of a
    :class:`~repro.distributed.threaded.ThreadedWorld`.  Integration points:

    * ``on_post`` — called (outside backend locks) for every collective a
      rank posts; the rendezvous index ``(group, seq)`` pairs matching calls
      across ranks, so the first rank whose ``(op, src, dtype, shape,
      fused_count)`` disagrees with an earlier poster raises immediately;
    * ``on_finish`` / ``assert_drained`` — pending-handle accounting, checked
      at pipeline flushes (a nonzero count there is lost communication);
    * ``barrier_check`` — run by the backend's barrier when all ranks have
      arrived: per-group posted-sequence counts must agree;
    * ``check_consistent`` — rendezvous-free agreement check for values that
      must be identical on every rank (e.g. the adaptive K-FAC refresh plan).

    A violation poisons the world through the bound callback (waking every
    blocked rank) before raising, so a divergent program *fails* instead of
    deadlocking.
    """

    def __init__(self, world_size: int) -> None:
        self.world_size = int(world_size)
        self.buffers = BufferAccessChecker()
        self.violation: Optional[SanitizerError] = None
        self._lock = threading.Lock()
        self._tracers: Dict[int, Any] = {}
        self._phase: Dict[int, str] = {}
        self._poison: Optional[Callable[[SanitizerError, bool], None]] = None
        # (group, seq) -> first-poster signature, dropped once the group is full
        self._signatures: Dict[Tuple, _SlotSignature] = {}
        # rank -> group -> number of collectives posted
        self._counts: Dict[int, Dict[Tuple[int, ...], int]] = {}
        self._pending_handles: Dict[int, int] = {}
        self.leaked_handles = 0
        # tag -> (first rank, fingerprint, seen) for check_consistent
        self._consistency: Dict[str, Tuple[int, Any, int]] = {}

    # ------------------------------------------------------------------ wiring
    def bind_poison(self, callback: Callable[[SanitizerError, bool], None]) -> None:
        """Install the world's poison hook (wakes blocked ranks on violation)."""
        self._poison = callback

    def attach_tracer(self, rank: int, tracer: Any) -> None:
        """Adopt ``tracer`` (the rank's communicator's) for ``sanitize/*`` instants detected on ``rank``."""
        with self._lock:
            self._tracers[rank] = tracer

    def set_phase(self, rank: int, phase: str) -> None:
        """Label ``rank``'s current program phase (shown in divergence reports)."""
        with self._lock:
            self._phase[rank] = phase

    # --------------------------------------------------------------- violations
    def _raise(self, error: SanitizerError, abort_barrier: bool = True) -> None:
        with self._lock:
            if self.violation is None:
                self.violation = error
            tracer = self._tracers.get(error.rank) if error.rank is not None else None
            if tracer is None and self._tracers:
                tracer = next(iter(self._tracers.values()))
        if tracer is not None:
            tracer.instant(
                "sanitize/violation", category="sanitize", kind=error.kind, message=str(error)
            )
        if self._poison is not None:
            self._poison(error, abort_barrier)
        raise error

    def propagated(self) -> SanitizerError:
        """A copy of the recorded violation for ranks woken by the poison hook."""
        first = self.violation
        if first is None:
            return SanitizerError("schedule-divergence", "world poisoned by another rank")
        return SanitizerError(
            first.kind,
            f"(propagated from the detecting rank) {first}",
            call_site=first.call_site,
            details=first.details,
        )

    # -------------------------------------------------------------------- posts
    def on_post(
        self,
        rank: int,
        op: str,
        group: Tuple[int, ...],
        seq: int,
        src: Optional[int],
        value: Optional[np.ndarray],
        fused_count: int,
    ) -> None:
        """Record + cross-check one posted collective (called before rendezvous)."""
        call_site = capture_call_site()
        value_sig = _value_signature(value)
        key = (group, seq)
        mismatch: Optional[Tuple[str, _SlotSignature]] = None
        with self._lock:
            phase = self._phase.get(rank, "")
            self._counts.setdefault(rank, {})[group] = self._counts.setdefault(rank, {}).get(group, 0) + 1
            self._pending_handles[rank] = self._pending_handles.get(rank, 0) + 1
            sig = self._signatures.get(key)
            if sig is None:
                self._signatures[key] = _SlotSignature(rank, op, src, int(fused_count), value_sig, call_site, phase)
            else:
                sig.seen += 1
                if sig.seen >= len(group):
                    self._signatures.pop(key, None)
                if (op, src, int(fused_count)) != (sig.op, sig.src, sig.fused_count):
                    mismatch = ("op/src/fusion", sig)
                elif value_sig is not None and sig.value_sig is not None and value_sig != sig.value_sig:
                    mismatch = ("dtype/shape", sig)
                elif value_sig is not None and sig.value_sig is None:
                    sig.value_sig = value_sig  # first concrete payload seen (broadcast src)
        if mismatch is not None:
            what, sig = mismatch
            self._raise(
                SanitizerError(
                    "schedule-divergence",
                    f"collective #{seq} on group {group} diverges across ranks ({what}): "
                    f"rank {rank} posted {op}(src={src}, fused={fused_count}, sig={value_sig}) "
                    f"in phase {self._phase.get(rank, '') or '?'} at {call_site}, but rank "
                    f"{sig.rank} posted {sig.op}(src={sig.src}, fused={sig.fused_count}, "
                    f"sig={sig.value_sig}) in phase {sig.phase or '?'} at {sig.call_site}",
                    rank=rank,
                    call_site=call_site,
                    details={
                        "group": group,
                        "seq": seq,
                        "this": (rank, op, src, fused_count, value_sig, call_site),
                        "other": (sig.rank, sig.op, sig.src, sig.fused_count, sig.value_sig, sig.call_site),
                    },
                )
            )

    def on_finish(self, rank: int) -> None:
        with self._lock:
            self._pending_handles[rank] = max(0, self._pending_handles.get(rank, 0) - 1)

    def on_leaked(self, rank: int) -> None:
        """A posted WorkHandle was garbage-collected without finish()."""
        with self._lock:
            self.leaked_handles += 1
            self._pending_handles[rank] = max(0, self._pending_handles.get(rank, 0) - 1)

    def pending_handles(self, rank: int) -> int:
        with self._lock:
            return self._pending_handles.get(rank, 0)

    def assert_drained(self, rank: int, where: str) -> None:
        """Raise ``lost-comm`` if ``rank`` still has unfinished posted handles."""
        pending = self.pending_handles(rank)
        tracer = self._tracers.get(rank)
        if tracer is not None:
            tracer.instant("sanitize/flush_check", category="sanitize", where=where, pending=pending)
        if pending:
            self._raise(
                SanitizerError(
                    "lost-comm",
                    f"{pending} posted collective handle(s) still unfinished at {where}; "
                    "every post() needs a matching finish()/drain() on all paths",
                    rank=rank,
                    details={"where": where, "pending": pending},
                )
            )

    # ----------------------------------------------------------------- barriers
    def barrier_check(self) -> None:
        """Cross-rank check at a barrier: per-group posted counts must agree.

        Runs while every rank is blocked in the barrier, so the counts are
        quiescent.  Counts are compared only among each group's members (a
        rank outside a group legitimately never posts on it).
        """
        with self._lock:
            groups = {group for counts in self._counts.values() for group in counts}
            for group in sorted(groups):
                per_rank = {
                    member: self._counts.get(member, {}).get(group, 0) for member in group
                }
                if len(set(per_rank.values())) > 1:
                    detail = ", ".join(f"rank {r}: {n}" for r, n in sorted(per_rank.items()))
                    error = SanitizerError(
                        "schedule-divergence",
                        f"ranks reached a barrier with diverging collective counts on "
                        f"group {group} ({detail}); all ranks of a group must post the "
                        "same sequence of collectives",
                        details={"group": group, "counts": per_rank},
                    )
                    break
            else:
                return
        # Running as the ``threading.Barrier`` action: the barrier's internal
        # (non-reentrant) lock is held, and raising out of the action already
        # breaks the barrier for every waiter -- so the poison callback must
        # not call ``Barrier.abort()`` here or it would deadlock on that lock.
        self._raise(error, abort_barrier=False)

    # ------------------------------------------------------------- plan checks
    def check_consistent(self, rank: int, tag: str, fingerprint: Any) -> None:
        """Assert a value that must be rank-invariant really is (no extra comm).

        Each rank reports ``fingerprint`` under a unique, strictly program-
        ordered ``tag`` (e.g. ``"kfac/plan:123"``); the first reporter pins
        the expected value and later reporters compare against it.  Used for
        the adaptive K-FAC refresh plan, which every rank must derive
        identically from allreduced state.
        """
        if self.world_size <= 1:
            return
        mismatch: Optional[Tuple[int, Any]] = None
        with self._lock:
            entry = self._consistency.get(tag)
            if entry is None:
                self._consistency[tag] = (rank, fingerprint, 1)
            else:
                first_rank, expected, seen = entry
                seen += 1
                if seen >= self.world_size:
                    self._consistency.pop(tag, None)
                else:
                    self._consistency[tag] = (first_rank, expected, seen)
                if fingerprint != expected:
                    mismatch = (first_rank, expected)
        if mismatch is not None:
            first_rank, expected = mismatch
            self._raise(
                SanitizerError(
                    "plan-divergence",
                    f"rank-invariant value {tag!r} diverges: rank {rank} derived "
                    f"{fingerprint!r} but rank {first_rank} derived {expected!r}",
                    rank=rank,
                    details={"tag": tag, "this": fingerprint, "other": expected},
                )
            )

    # -------------------------------------------------------------- diagnostics
    def pending_diagnostics(self) -> Dict[str, Any]:
        """What is still in flight — attached to timeout errors."""
        with self._lock:
            return {
                "unmatched_slots": {
                    f"group={group} seq={seq}": f"{sig.op} first posted by rank {sig.rank} at {sig.call_site}"
                    for (group, seq), sig in self._signatures.items()
                },
                "pending_handles": dict(self._pending_handles),
                "phases": dict(self._phase),
            }
