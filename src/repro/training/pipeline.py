"""The trainer's one gradient-synchronisation seam.

The paper's Listing 1 has a single synchronisation point between
``loss.backward()`` and ``preconditioner.step()``.  :class:`GradientPipeline`
is that point: subscribers (DDP-style gradient averaging, K-FAC factor
allreduces) publish :class:`~repro.distributed.collectives.GradientBucketSpec`
lists, the pipeline plans deterministic ``bucket_cap_mb``-capped fused
buckets over them (every rank builds the identical plan), posts them through
one :class:`~repro.distributed.collectives.OverlapScheduler` and drains them
in :meth:`GradientPipeline.flush` — the call the
:class:`~repro.training.trainer.Trainer` awaits before the preconditioner /
optimizer step.

*When* the buckets are posted is the only thing that varies:

* **Never armed** (what a default ``Trainer`` does): ``flush()`` plans the
  step and posts every spec whose ``flush_ready`` predicate holds, after
  backward has finished — one fused gradient allreduce, then ``KFAC.step()``.
  No hook is registered, so the step pays no per-step registration cost.
* **Armed** (a pipeline instance handed to the ``Trainer``): :meth:`arm`
  plans the step *before* the final backward and registers grad-ready hooks
  on the gating parameters plus full backward hooks on the gating modules;
  as the autograd tape finalizes gradients — in reverse-layer order — each
  bucket whose events have all fired is posted immediately, so collectives
  fly while backprop is still computing earlier layers (the paper's
  hide-communication-behind-backprop argument).  ``flush()`` then posts
  whatever is left and removes the per-step hooks.

Bucket *payloads* are callables evaluated at posting time, so a subscriber
can fold statistics lazily (K-FAC folds a layer's factor window inside the
payload of the first factor bucket that needs it).  All collectives are
elementwise allreduce-averages over deterministic schedules, so armed and
un-armed steps produce the same bits.

Gradient accumulation: hooks fire once per micro-batch backward, but the
pipeline is armed only for the *final* micro-batch, so every bucket is
posted exactly once per optimization step, carrying the accumulated (and
micro-batch-scaled) gradients.

Subscribers may register a different spec list every step — K-FAC
registers buckets only for the layers its step's actions fold, so the other
layers contribute no buckets and no traffic.  The actions a subscriber
derives its specs from must stay stable from ``arm()`` until ``flush()``
returns; K-FAC takes them once per step and revises them only inside
``KFAC.step()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..distributed.backend import Communicator, SingleProcessCommunicator
from ..distributed.collectives import GradientBucketSpec, OverlapScheduler, TensorBucket
from ..tensor import Tensor, is_grad_enabled

__all__ = ["GradientPipeline"]


class _PlannedSpec:
    """One subscriber spec plus the gates that have not fired yet.

    ``gates`` lists the distinct gating objects in the spec's declaration
    order (params then modules) so hook registration iterates
    deterministically on every rank; ``pending`` holds their ids as a set,
    for O(1) firing.
    """

    __slots__ = ("spec", "gates", "pending")

    def __init__(self, spec: GradientBucketSpec) -> None:
        self.spec = spec
        gates: Dict[int, Tuple[object, str]] = {}
        for param in spec.params:
            gates.setdefault(id(param), (param, "param"))
        for module in spec.modules:
            gates.setdefault(id(module), (module, "module"))
        self.gates = gates
        self.pending = set(gates)

    @property
    def ready(self) -> bool:
        return not self.pending


class _PlannedBucket:
    """A fused bucket of the step plan, posted once all member gates fire."""

    __slots__ = ("bucket", "specs", "posted")

    def __init__(self, bucket: TensorBucket, specs: List[_PlannedSpec]) -> None:
        self.bucket = bucket
        self.specs = specs
        self.posted = False

    @property
    def fully_ready(self) -> bool:
        return all(spec.ready for spec in self.specs)


class GradientPipeline:
    """Plans, posts and drains the subscribers' communication buckets of one step.

    Parameters
    ----------
    model:
        The module whose backward pass drives the events (kept for
        introspection; gating objects come from the subscribers' specs).
    comm:
        Communicator shared by every subscriber's collectives.  Defaults to
        the single-process communicator.  Its tracer counts the buckets posted
        from backward events (``pipeline/buckets_posted_backward``, the
        communication that genuinely overlapped the backward pass) and at
        :meth:`flush` (``pipeline/buckets_posted_flush``).
    bucket_cap_mb:
        Fused-buffer cap handed to the :class:`OverlapScheduler`'s bucket
        manager (the DDP ``bucket_cap_mb`` analogue).
    """

    def __init__(self, model, comm: Optional[Communicator] = None, bucket_cap_mb: float = 25.0) -> None:
        self.model = model
        self.comm = comm if comm is not None else SingleProcessCommunicator()
        self.tracer = self.comm.tracer
        self.scheduler = OverlapScheduler(self.comm, bucket_cap_mb)
        self.subscribers: List[object] = []
        self.grad_scale: float = 1.0
        self._armed = False
        self._plan: List[_PlannedBucket] = []
        # gate id -> [(planned bucket, planned spec), ...]
        self._gates: Dict[int, List[Tuple[_PlannedBucket, _PlannedSpec]]] = {}
        self._hook_handles: List = []

    @property
    def bucket_cap_mb(self) -> float:
        return self.scheduler.buckets.bucket_cap_mb

    @property
    def armed(self) -> bool:
        return self._armed

    # ---------------------------------------------------------- subscription
    def add_subscriber(self, subscriber) -> None:
        """Register a subscriber.

        A subscriber provides ``pipeline_specs(pipeline) ->
        Sequence[GradientBucketSpec]`` (called once per step, when the step is
        planned; may return an empty list for steps with nothing to
        communicate) and may provide ``on_pipeline_flush(pipeline)``, called
        after :meth:`flush` has drained all collectives.
        """
        if not hasattr(subscriber, "pipeline_specs"):
            raise TypeError(
                f"{type(subscriber).__name__} is not a pipeline subscriber: "
                "it must define pipeline_specs(pipeline)"
            )
        self.subscribers.append(subscriber)

    # ------------------------------------------------------------------ plan
    def _plan_step(self, grad_scale: float) -> None:
        """Collect this step's subscriber specs into fused buckets.

        Per-subscriber bucket plan: deterministic greedy fusion in the order
        the subscriber emitted its specs (reverse-layer order by convention,
        matching gradient readiness during backward).
        """
        self.grad_scale = float(grad_scale)
        self._plan = []
        for subscriber in self.subscribers:
            specs = list(subscriber.pipeline_specs(self))
            planned = {spec.key: _PlannedSpec(spec) for spec in specs}
            if len(planned) != len(specs):
                raise ValueError(f"duplicate pipeline spec keys from {type(subscriber).__name__}")
            for bucket in self.scheduler.buckets.build([(s.key, s.shape, s.dtype) for s in specs]):
                self._plan.append(_PlannedBucket(bucket, [planned[entry.key] for entry in bucket.entries]))

    # ------------------------------------------------------------------- arm
    def arm(self, grad_scale: float = 1.0) -> None:
        """Plan the step and post its buckets *during* the final backward.

        ``grad_scale`` is the micro-batch averaging factor (``1/n`` under
        gradient accumulation) subscribers fold into their payloads.  Arm
        immediately before the last micro-batch's forward pass; earlier
        micro-batches run un-armed, so their hook events post nothing.
        Re-arming an armed pipeline discards the stale plan (and any
        collectives it already posted) first.
        """
        if self._armed:
            self._disarm()
            self.scheduler.discard()
        self._plan_step(grad_scale)
        gate_objects: Dict[int, Tuple[object, str]] = {}
        for planned_bucket in self._plan:
            for planned_spec in planned_bucket.specs:
                # Iterate the declaration-ordered gate dict, not the `pending`
                # set: registration order must be identical on every rank
                # (SPMD103).
                for gate_id, gate in planned_spec.gates.items():
                    gate_objects.setdefault(gate_id, gate)
                    self._gates.setdefault(gate_id, []).append((planned_bucket, planned_spec))
        # One readiness hook per distinct gating object.  A parameter's
        # grad-ready event already fires only once its *last* consumer
        # contributed (the tape counts consumer edges), but a module invoked
        # several times in one forward (weight sharing, recurrence) emits one
        # backward event per invocation — and only after the last of them are
        # e.g. K-FAC's G statistics complete.  So module gates are counted: a
        # forward hook tallies the qualifying calls made while armed, and the
        # gate fires on the matching backward event.
        for gate_id, (obj, kind) in gate_objects.items():
            if kind == "param":
                self._hook_handles.append(
                    obj.register_grad_ready_hook(
                        lambda tensor, gate_id=gate_id: self._gate_fired(gate_id)
                    )
                )
            else:
                counts = {"expected": 0, "seen": 0}

                def on_forward(module, inputs, output, counts=counts) -> None:
                    if isinstance(output, Tensor) and output.requires_grad and is_grad_enabled():
                        counts["expected"] += 1

                def on_backward(module, grad_input, grad_output, gate_id=gate_id, counts=counts) -> None:
                    counts["seen"] += 1
                    if counts["seen"] == counts["expected"]:
                        self._gate_fired(gate_id)

                self._hook_handles.append(obj.register_forward_hook(on_forward))
                self._hook_handles.append(obj.register_full_backward_hook(on_backward))
        self._armed = True

    # ---------------------------------------------------------------- events
    def _gate_fired(self, gate_id: int) -> None:
        if not self._armed:
            return
        for planned_bucket, planned_spec in self._gates.get(gate_id, ()):
            planned_spec.pending.discard(gate_id)
            if not planned_bucket.posted and planned_bucket.fully_ready:
                self._post(planned_bucket, [spec.spec for spec in planned_bucket.specs], phase="backward")

    def _post(
        self, planned_bucket: _PlannedBucket, specs: Sequence[GradientBucketSpec], phase: str = "flush"
    ) -> None:
        self.tracer.counter_add(f"pipeline/buckets_posted_{phase}")
        self.tracer.instant(
            "pipeline/bucket_posted",
            category="pipeline",
            phase=phase,
            nbytes=planned_bucket.bucket.nbytes,
            fused_count=len(planned_bucket.bucket),
        )
        self.scheduler.post_allreduces([spec.to_allreduce() for spec in specs])
        planned_bucket.posted = True

    # ----------------------------------------------------------------- flush
    def flush(self, grad_scale: float = 1.0) -> None:
        """Post remaining buckets, drain all collectives and notify subscribers.

        On a pipeline that was never armed this *is* the step's gradient
        synchronisation: the step is planned here with ``grad_scale`` (an
        armed pipeline fixed its scale at :meth:`arm` and ignores this one)
        and nothing has been posted yet.  Buckets whose events all fired
        during an armed backward were already posted.  Anything left is
        posted here with the members that are safe to send: specs whose gates
        fired, plus specs whose ``flush_ready`` predicate confirms the payload
        is valid anyway (every gradient that exists, when no hook ever ran; a
        parameter that accumulated gradients in an earlier micro-batch but
        sat out the armed one).  Specs that are neither are dropped — a
        parameter without a gradient is not averaged.
        """
        if not self._armed:
            self._plan_step(grad_scale)
        with self.tracer.span("pipeline/flush", category="pipeline"):
            for planned_bucket in self._plan:
                if planned_bucket.posted:
                    continue
                ready = [
                    spec.spec
                    for spec in planned_bucket.specs
                    if spec.ready or (spec.spec.flush_ready is not None and spec.spec.flush_ready())
                ]
                if ready:
                    self._post(planned_bucket, ready, phase="flush")
            self.scheduler.drain()
            sanitizer = self.scheduler.sanitizer
            if sanitizer is not None:
                # Lost-comm check: after the drain this rank must have zero
                # unfinished posted handles — anything left is a collective
                # some code path posted and forgot.
                sanitizer.assert_drained(self.comm.rank, where="pipeline/flush")
        self._disarm()
        for subscriber in self.subscribers:
            on_flush = getattr(subscriber, "on_pipeline_flush", None)
            if on_flush is not None:
                on_flush(self)

    def _disarm(self) -> None:
        for handle in self._hook_handles:
            handle.remove()
        self._hook_handles = []
        self._plan = []
        self._gates = {}
        self._armed = False

    def abort(self) -> None:
        """Drop an armed plan and discard anything already posted (error recovery).

        Buckets launched mid-backward before the failure are waited out and
        their results thrown away — never dispatched to callbacks — so a
        subsequent ``arm()``/``flush()`` starts from a clean scheduler.  In a
        multi-rank program every rank must abort (or otherwise match the
        posted collectives) symmetrically, as with any SPMD error recovery.
        """
        if self._armed:
            self._disarm()
        self.scheduler.discard()
