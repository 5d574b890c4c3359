"""Asynchronous bucketed collective engine (comm/compute overlap).

The paper's scaling argument (sections 3.1 and 5.4) is that distributing
K-FAC's *communication* well matters as much as distributing its compute:
hundreds of small per-layer collectives pay a per-message latency ``α`` each,
and issuing them synchronously serialises them behind one another and behind
local compute.  This module is the communication engine that removes both
costs without changing a result bit:

``BucketManager``
    Coalesces many small same-dtype tensors into flat *fused buffers* capped
    at ``bucket_cap_mb`` (the ``torch.distributed`` DDP bucketing idea).  A
    fused bucket is one collective message — one ``α`` latency term instead
    of one per tensor — carrying exactly the same bytes.  Fusion order is
    the deterministic insertion order of the tensors, so every rank packs and
    unpacks identically and element values never depend on bucket boundaries
    (allreduce-average and broadcast are both elementwise).

``OverlapScheduler``
    Executes a *schedule* of logical collectives (:class:`BroadcastSpec` /
    :class:`AllreduceSpec`) through the bucket manager and the nonblocking
    ``Communicator.iallreduce_average`` / ``Communicator.ibroadcast``
    primitives: all buckets are posted back-to-back (so they are in flight
    concurrently and pipeline against whatever the caller computes next) and
    awaited in issue order, unpacking result views into per-tensor callbacks
    on completion.  Specs whose group does not contain the local rank are
    skipped, so one globally-deterministic schedule serves every rank of an
    SPMD program — exactly how K-FAC's per-layer plans are already built.

    A channel whose group is the local rank alone exchanges nothing: each
    payload is handed to its own callback at :meth:`OverlapScheduler.drain`,
    cast and scaled as its bucket would have been but through no fused buffer,
    and the communicator is never called, so a world-size-1 run (or a
    sub-group of one) costs no message and no copy.

Both spec types carry ``shape`` / ``dtype`` and a callable ``payload``
evaluated when its bucket is packed, so a schedule is bucketed before any
payload exists.  The K-FAC preconditioner executes every factor allreduce,
eigen broadcast and preconditioned-gradient broadcast through this engine
(``bucket_cap_mb`` tunes the fusion granularity; a cap smaller than any
tensor sends each tensor alone), and data-parallel gradient averaging
(:func:`repro.distributed.ddp.gradient_specs`) runs through the same engine
from ``DistributedDataParallel.sync_gradients``.  Element values
never depend on the cap, so every cap produces the same training trajectory
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .backend import Communicator

__all__ = [
    "BucketEntry",
    "TensorBucket",
    "BucketManager",
    "BroadcastSpec",
    "AllreduceSpec",
    "broadcast_messages",
    "OverlapScheduler",
]


@dataclass(frozen=True)
class BucketEntry:
    """One logical tensor's slice inside a fused bucket."""

    key: str
    shape: Tuple[int, ...]
    offset: int  # element offset into the flat bucket buffer

    @property
    def size(self) -> int:
        size = 1
        for dim in self.shape:
            size *= int(dim)
        return size


class TensorBucket:
    """A flat fused buffer holding several same-dtype tensors.

    The entry order (and therefore the packed layout) is the insertion order,
    which callers must keep deterministic across ranks.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = np.dtype(dtype)
        self.entries: List[BucketEntry] = []
        self._size = 0

    def add(self, key: str, shape: Tuple[int, ...]) -> BucketEntry:
        entry = BucketEntry(key=key, shape=tuple(int(d) for d in shape), offset=self._size)
        self.entries.append(entry)
        self._size += entry.size
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def size(self) -> int:
        """Total elements in the fused buffer."""
        return self._size

    @property
    def nbytes(self) -> int:
        return self._size * self.dtype.itemsize

    def pack(self, payload_of: Callable[[str], np.ndarray], scale: float = 1.0) -> np.ndarray:
        """The member tensors (``payload_of(key)``, in entry order) in one fresh flat buffer, times ``scale``.

        One concatenate fills the buffer -- it is also the cast to the
        bucket's dtype -- and ``scale`` is applied once, to the whole buffer.
        """
        arrays = []
        for entry in self.entries:
            array = payload_of(entry.key)
            if array.size != entry.size:
                raise ValueError(
                    f"bucket entry {entry.key!r} expects {entry.size} elements, got {array.size}"
                )
            arrays.append(array.reshape(-1))
        flat = np.empty(self._size, dtype=self.dtype)
        np.concatenate(arrays, out=flat, casting="unsafe")
        if scale != 1.0:
            flat *= scale
        return flat

    def unpack(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a flat result buffer back into per-tensor arrays (views reshaped)."""
        if flat.size != self._size:
            raise ValueError(f"bucket expects {self._size} elements, got {flat.size}")
        out: Dict[str, np.ndarray] = {}
        for entry in self.entries:
            out[entry.key] = flat[entry.offset : entry.offset + entry.size].reshape(entry.shape)
        return out


class BucketManager:
    """Builds deterministic fused buckets under a size cap.

    Tensors are grouped by dtype (mixed-dtype fusion would silently upcast)
    and assigned to buckets greedily in insertion order; a bucket is closed
    when adding the next tensor would exceed ``bucket_cap_mb``.  A single
    tensor larger than the cap gets a bucket of its own — it is never split,
    matching DDP's gradient-bucket semantics.
    """

    def __init__(self, bucket_cap_mb: float = 25.0) -> None:
        if bucket_cap_mb <= 0:
            raise ValueError("bucket_cap_mb must be positive")
        self.bucket_cap_mb = float(bucket_cap_mb)
        self.cap_bytes = int(self.bucket_cap_mb * 1024 * 1024)

    def build(self, specs: Sequence[Tuple[str, Tuple[int, ...], np.dtype]]) -> List[TensorBucket]:
        """Partition ``(key, shape, dtype)`` specs into capped same-dtype buckets."""
        buckets: List[TensorBucket] = []
        open_buckets: Dict[np.dtype, TensorBucket] = {}
        for key, shape, dtype in specs:
            dtype = np.dtype(dtype)
            size = 1
            for dim in shape:
                size *= int(dim)
            nbytes = size * dtype.itemsize
            bucket = open_buckets.get(dtype)
            if bucket is not None and bucket.nbytes + nbytes > self.cap_bytes and len(bucket) > 0:
                bucket = None  # close the full bucket; keep its position in `buckets`
            if bucket is None:
                bucket = TensorBucket(dtype)
                buckets.append(bucket)
                open_buckets[dtype] = bucket
            bucket.add(key, shape)
        return [bucket for bucket in buckets if len(bucket) > 0]


@dataclass
class BroadcastSpec:
    """One logical tensor to broadcast from ``src`` within ``group``.

    Every rank of the group constructs the same spec (same key, shape, dtype
    — the metadata needed to unpack the fused buffer); only the source rank
    supplies ``payload``, a callable evaluated when the spec's bucket is
    packed (so a payload that has to be assembled, like a packed eigen
    decomposition, exists only while it is copied into the fused buffer).
    ``on_complete`` receives the received array.
    """

    key: str
    src: int
    group: Optional[Tuple[int, ...]]  # None = the whole world
    shape: Tuple[int, ...]
    dtype: np.dtype
    payload: Optional[Callable[[], np.ndarray]] = None
    on_complete: Optional[Callable[[np.ndarray], None]] = None


@dataclass
class AllreduceSpec:
    """One logical tensor to allreduce-average within ``group``.

    Shaped like :class:`BroadcastSpec`: ``shape`` / ``dtype`` describe the
    payload for bucket planning (every rank must post identical specs in
    identical order), and ``payload`` is a callable evaluated when the
    spec's bucket is packed.  ``on_complete`` receives the averaged array.
    """

    key: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    payload: Callable[[], np.ndarray]
    on_complete: Optional[Callable[[np.ndarray], None]] = None
    group: Optional[Tuple[int, ...]] = None  # None = the whole world
    #: Multiplied into the payload where it sits in its fused buffer, once per
    #: bucket (specs are fused with specs of the same scale only): the
    #: micro-batch ``1/n`` of gradient accumulation.
    scale: float = 1.0


def group_members(group: Optional[Tuple[int, ...]], world_size: int) -> Tuple[int, ...]:
    """The sorted distinct ranks of ``group`` (``None`` = the whole world)."""
    if group is None:
        return tuple(range(world_size))
    return tuple(sorted(set(int(r) for r in group)))


def broadcast_messages(
    specs: Sequence[BroadcastSpec], world_size: int, buckets: BucketManager, rank: Optional[int] = None
) -> List[Tuple[int, Tuple[int, ...], List[BroadcastSpec], List[TensorBucket]]]:
    """The fused messages a broadcast schedule becomes: ``(src, members, channel specs, buckets)`` per channel.

    Specs are grouped by ``(src, members)`` in first-appearance order and each
    channel's specs are bucketized in list order; every bucket is one message
    among ``members``.  ``rank`` keeps only the channels that contain it (what
    that rank posts); ``None`` keeps all of them (what the world exchanges).
    Pure: this is both what :meth:`OverlapScheduler.post_broadcasts` posts
    and what a cost model prices, so the two cannot drift apart.
    """
    channels: Dict[Tuple[int, Tuple[int, ...]], List[BroadcastSpec]] = {}
    for spec in specs:
        members = group_members(spec.group, world_size)
        if rank is None or rank in members:
            channels.setdefault((int(spec.src), members), []).append(spec)
    return [
        (src, members, channel, buckets.build([(s.key, s.shape, s.dtype) for s in channel]))
        for (src, members), channel in channels.items()
    ]


class OverlapScheduler:
    """Executes fused, pipelined collective schedules over a :class:`Communicator`.

    All buckets of a schedule are posted through the nonblocking primitives
    before any is awaited, so independent buckets (different groups, or
    successive buckets of one group) are in flight concurrently; results are
    awaited in issue order and dispatched to the per-tensor callbacks.

    Two driving styles are supported:

    * ``run_broadcasts`` / ``run_allreduces`` — post a whole schedule, then
      drain it (the ``KFAC.step()`` pattern);
    * ``post_broadcasts`` / ``post_allreduces`` followed by a later
      :meth:`drain` — several schedules in flight before one drain.

    The scheduler is not reentrant: :meth:`drain` completes *everything*
    posted so far, in posting order.
    """

    def __init__(self, comm: Communicator, bucket_cap_mb: float = 25.0) -> None:
        self.comm = comm
        self.buckets = BucketManager(bucket_cap_mb)
        # The rank's tracer: while enabled, every posted bucket records a
        # post->finish span (category "comm"), the raw material for
        # measured-overlap reporting.
        self.tracer = comm.tracer
        # Runtime sanitizer (REPRO_SANITIZE=1): posted bucket buffers are
        # frozen + fingerprinted until their handle is awaited, so a mutation
        # or read of an in-flight buffer raises instead of corrupting comm.
        self.sanitizer = getattr(comm, "sanitizer", None)
        # Posting order: a fused bucket in flight ``(handle, bucket, spec_by_key, posted, token)``, or the
        # ``[(spec, array), ...]`` of a channel of one, which has nothing to wait for.
        self._in_flight: List[object] = []

    def _stamp(self, op: str, bucket: TensorBucket, flat: Optional[np.ndarray]) -> Optional[int]:
        """Register a posted flat buffer with the buffer-access checker."""
        if self.sanitizer is None or flat is None:
            return None
        key = f"rank{self.comm.rank}/{op}:{bucket.entries[0].key}+{len(bucket) - 1}"
        return self.sanitizer.buffers.stamp(key, flat, tracer=self.tracer)

    # ------------------------------------------------------------- internals
    def _launch(
        self,
        op: str,
        bucket: TensorBucket,
        spec_by_key: Dict[str, object],
        flat: Optional[np.ndarray],
        members: Tuple[int, ...],
        src: Optional[int] = None,
    ) -> None:
        """Put one fused bucket in flight."""
        group = None if len(members) == self.comm.world_size else members
        if op == "broadcast":
            handle = self.comm.ibroadcast(flat, src=src, group=group, fused_count=len(bucket))
        else:
            handle = self.comm.iallreduce_average(flat, group=group, fused_count=len(bucket))
        token = self._stamp(op, bucket, flat)
        posted = (op, len(members), self.tracer.now() if self.tracer.enabled else 0.0)
        self._in_flight.append((handle, bucket, spec_by_key, posted, token))

    # ------------------------------------------------------------ broadcasts
    def post_broadcasts(self, specs: Sequence[BroadcastSpec]) -> None:
        """Fuse and post a broadcast schedule without awaiting it.

        Specs are grouped by ``(src, group)`` in first-appearance order and
        bucketized per channel; the local rank participates only in channels
        whose group contains it, so the same globally-ordered schedule can be
        passed on every rank.  Results arrive at :meth:`drain`.
        """
        rank = self.comm.rank
        messages = broadcast_messages(specs, self.comm.world_size, self.buckets, rank)
        for src, members, channel_specs, buckets in messages:
            spec_by_key = {spec.key: spec for spec in channel_specs}
            if len(spec_by_key) != len(channel_specs):
                raise ValueError(
                    f"duplicate broadcast keys in channel (src={src}, group={members}); "
                    "every spec of a channel needs a unique key"
                )

            def source_payload(key: str) -> np.ndarray:
                payload = spec_by_key[key].payload
                if payload is None:
                    raise ValueError(f"broadcast source rank {src} has no payload for {key!r}")
                return payload()

            if len(members) == 1:
                # Nobody to exchange with: the payload already is the result, in the spec's dtype and
                # shape.  No buffer, no message to log, stamp or time; the callbacks fire at drain().
                if rank != src:
                    raise ValueError(f"broadcast group {members} does not contain its source rank")
                self._in_flight.append(
                    [(s, source_payload(s.key).astype(s.dtype, copy=False).reshape(s.shape)) for s in channel_specs]
                )
                continue
            for bucket in buckets:
                flat = bucket.pack(source_payload) if rank == src else None
                self._launch("broadcast", bucket, spec_by_key, flat, members, src=src)

    def run_broadcasts(self, specs: Sequence[BroadcastSpec]) -> None:
        """Fuse and execute a broadcast schedule (post + drain)."""
        self.post_broadcasts(specs)
        self.drain()

    # ------------------------------------------------------------ allreduces
    def post_allreduces(self, specs: Sequence[AllreduceSpec]) -> None:
        """Fuse and post an allreduce-average schedule without awaiting it."""
        rank = self.comm.rank
        channels: Dict[Tuple[Tuple[int, ...], float], List[AllreduceSpec]] = {}
        for spec in specs:
            members = group_members(spec.group, self.comm.world_size)
            if rank in members:
                channels.setdefault((members, float(spec.scale)), []).append(spec)

        for (members, scale), channel_specs in channels.items():
            spec_by_key = {spec.key: spec for spec in channel_specs}
            if len(spec_by_key) != len(channel_specs):
                raise ValueError(
                    f"duplicate allreduce keys in group {members}; "
                    "every spec of a channel needs a unique key"
                )
            if len(members) == 1:
                # The average over a group of one is the (scaled) payload itself: see post_broadcasts.
                self._in_flight.append([(s, s.payload() if scale == 1.0 else s.payload() * scale) for s in channel_specs])
                continue
            for bucket in self.buckets.build([(s.key, s.shape, s.dtype) for s in channel_specs]):
                flat = bucket.pack(lambda key: spec_by_key[key].payload(), scale)
                self._launch("allreduce", bucket, spec_by_key, flat, members)

    def run_allreduces(self, specs: Sequence[AllreduceSpec]) -> None:
        """Fuse and execute an allreduce-average schedule (post + drain)."""
        self.post_allreduces(specs)
        self.drain()

    # ----------------------------------------------------------------- drain
    def drain(self) -> None:
        """Await every posted bucket in posting order and dispatch callbacks.

        Each bucket's handle and flat buffer are released as soon as its
        callbacks ran, so a long schedule never holds more than the buckets
        still in flight.
        """
        in_flight, self._in_flight = self._in_flight, []
        in_flight.reverse()
        while in_flight:
            posted_entry = in_flight.pop()
            if isinstance(posted_entry, list):
                for spec, array in posted_entry:
                    if spec.on_complete is not None:
                        spec.on_complete(array)
                continue
            handle, bucket, spec_by_key, posted, token = posted_entry
            result = bucket.unpack(handle.wait())
            if token is not None:
                self.sanitizer.buffers.release(token)
            self._record_comm_span(bucket, posted)
            for entry in bucket.entries:
                spec = spec_by_key[entry.key]
                if spec.on_complete is not None:
                    spec.on_complete(result[entry.key])
            del handle, result, posted_entry

    def _record_comm_span(self, bucket: TensorBucket, posted: Optional[Tuple[str, int, float]]) -> None:
        """Record the post->finish window of one fused bucket on the tracer.

        The interval covers the collective's entire in-flight life on this
        rank — from the nonblocking post to the moment its result was awaited
        — which is exactly the window measured overlap reporting intersects
        with the backward spans.
        """
        if posted is None or not self.tracer.enabled:
            return
        op, group_size, t_post = posted
        self.tracer.record_span(
            f"comm/{op}",
            start=t_post,
            end=self.tracer.now(),
            category="comm",
            lane="comm",
            op=op,
            nbytes=bucket.nbytes,
            fused_count=len(bucket),
            group_size=group_size,
        )
