"""Training loop used by the examples, tests and benchmarks.

The loop follows the paper's Listing 1 ordering exactly: backward, gradient
synchronization (data parallel), ``preconditioner.step()``,
``optimizer.step()``.  Gradient accumulation (section 4.2) and AMP loss
scaling (section 4.1) slot in around that ordering the same way they do in
the reference implementation.

Gradient synchronization has one seam, a
:class:`~repro.training.pipeline.GradientPipeline`, and every step ends it
with one ``flush()`` before the preconditioner / optimizer step.  The trainer
owns a pipeline it never arms unless the caller supplies one: ``flush()`` then
posts the gradient-averaging buckets after backward — one fused float32
allreduce, Listing 1's synchronisation point.  A pipeline passed in by the
caller is armed before the final micro-batch, so the same buckets (and the
K-FAC factor allreduces) are posted *during* the backward pass as grad-ready
events fire.  Both produce the same bits.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

from ..distributed.backend import Communicator
from ..distributed.ddp import GradientAveragingSubscriber
from ..kfac.base import Preconditioner
from ..nn.module import Module
from ..optim.grad_scaler import GradScaler
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from .convergence import TrainingCurve
from .pipeline import GradientPipeline

__all__ = ["Trainer"]

ForwardLoss = Callable[[Module, object], "object"]
EvaluateFn = Callable[[Module], float]


class Trainer:
    """Generic trainer that composes a model, an optimizer and (optionally) KAISA.

    Parameters
    ----------
    forward_loss:
        ``forward_loss(model, batch) -> loss Tensor``; the trainer stays
        agnostic of the workload's batch structure.
    preconditioner:
        Optional :class:`repro.kfac.Preconditioner` implementation (e.g.
        :class:`repro.kfac.KFAC`); its ``step()`` is invoked between the
        gradient synchronization and the optimizer step, and its state is
        included in :meth:`state_dict` for checkpoint/resume.
    iteration_time:
        Optional simulated seconds per iteration (from
        :class:`repro.kfac.IterationTimeModel`), used to accumulate the
        simulated wall-clock recorded in training curves.
    bucket_cap_mb:
        Fused-buffer cap of the pipeline the trainer builds.  ``None``
        (default) takes the preconditioner's resolved cap, else 25 MB.
    pipeline:
        ``None`` (default): the trainer builds a
        :class:`~repro.training.pipeline.GradientPipeline` over ``comm`` with
        gradient averaging subscribed and never arms it, so everything is
        posted at ``flush()``; without a ``comm`` no gradient is averaged,
        whatever the preconditioner communicates over.  Pass an instance to
        overlap communication with backward: it is armed before the final
        micro-batch and, when it has no subscribers yet, wired with gradient
        averaging plus the preconditioner's factor subscription (when the
        preconditioner supports it).

    The trainer records its step / micro-batch / forward / backward /
    optimizer spans into the rank's tracer, ``comm.tracer`` (with no ``comm``,
    the preconditioner's communicator's, else the pipeline's): the one the
    pipeline and the preconditioner record into, so one trace covers the
    whole stack once it is enabled (``REPRO_TRACE=1`` or
    ``comm.tracer.enabled = True``).  Tracing never changes numerics.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        forward_loss: ForwardLoss,
        preconditioner: Optional[Preconditioner] = None,
        lr_scheduler: Optional[LRScheduler] = None,
        grad_scaler: Optional[GradScaler] = None,
        comm: Optional[Communicator] = None,
        grad_accumulation_steps: int = 1,
        iteration_time: Optional[float] = None,
        bucket_cap_mb: Optional[float] = None,
        pipeline: Optional[GradientPipeline] = None,
    ) -> None:
        if grad_accumulation_steps < 1:
            raise ValueError("grad_accumulation_steps must be >= 1")
        if preconditioner is not None and not isinstance(preconditioner, Preconditioner):
            raise TypeError(
                "preconditioner must implement repro.kfac.Preconditioner "
                f"(got {type(preconditioner).__name__}); subclass it to plug in a custom scheme"
            )
        self.model = model
        self.optimizer = optimizer
        self.forward_loss = forward_loss
        self.preconditioner = preconditioner
        self.lr_scheduler = lr_scheduler
        self.grad_scaler = grad_scaler
        self.comm = comm
        self.grad_accumulation_steps = int(grad_accumulation_steps)
        self.iteration_time = iteration_time
        rank_comm = comm if comm is not None else getattr(preconditioner, "comm", None)
        # Overlap with backward is the caller's request: only a supplied
        # pipeline is ever armed.
        self._overlap = pipeline is not None
        if pipeline is None:
            if bucket_cap_mb is None:
                # The preconditioner's resolved cap (including the
                # cost-model-sized bucket_cap_mb="auto"), so gradient and
                # factor traffic share one fusion granularity.
                bucket_cap_mb = getattr(preconditioner, "resolved_bucket_cap_mb", None) or 25.0
            # Without a comm nothing is averaged; a single-rank preconditioner's
            # communicator averages nothing either and keeps the rank at one tracer.
            single = rank_comm if rank_comm is not None and rank_comm.world_size == 1 else None
            pipeline = GradientPipeline(model, comm=comm if comm is not None else single, bucket_cap_mb=bucket_cap_mb)
        elif not isinstance(pipeline, GradientPipeline):
            raise TypeError(f"pipeline must be a GradientPipeline or None, got {pipeline!r}")
        elif comm is not None and pipeline.comm is not comm and (comm.world_size > 1 or pipeline.comm.world_size > 1):
            # A pipeline left on its default single-process communicator
            # would silently turn gradient averaging into a no-op while
            # the trainer believes it is training data-parallel.
            raise ValueError(
                "GradientPipeline and Trainer must share one communicator: the pipeline "
                f"synchronizes over {pipeline.comm.world_size} rank(s) but the trainer's "
                f"communicator spans {comm.world_size}; pass GradientPipeline(model, comm=...)"
            )
        if not pipeline.subscribers:
            pipeline.add_subscriber(GradientAveragingSubscriber(model))
            if self._overlap and hasattr(preconditioner, "pipeline_specs"):
                # Factor allreduces overlap backward too; on the trainer's own
                # pipeline the factor stage stays inside preconditioner.step().
                pipeline.add_subscriber(preconditioner)
        self.pipeline = pipeline
        self.tracer = (rank_comm if rank_comm is not None else pipeline.comm).tracer
        self.iterations = 0
        self.simulated_time = 0.0
        self._start_time = time.perf_counter()

    # ------------------------------------------------------------------ step
    def train_step(self, batches) -> float:
        """One optimization step over one batch (or a list of micro-batches)."""
        with self.tracer.span("trainer/step", category="step", iteration=self.iterations):
            return self._train_step(batches)

    def _train_step(self, batches) -> float:
        # A plain batch is passed as-is; gradient accumulation passes an explicit
        # *list* of micro-batches (tuples/dicts are single batches).
        micro_batches: Sequence = batches if isinstance(batches, list) else [batches]
        self.model.train()
        self.optimizer.zero_grad()
        total_loss = 0.0
        final_index = len(micro_batches) - 1
        # Accumulated gradients are averaged so the effective loss is the mean.
        grad_scale = 1.0 / len(micro_batches)
        for index, micro in enumerate(micro_batches):
            with self.tracer.span("trainer/micro_batch", category="step", index=index):
                if self._overlap and index == final_index:
                    # Arm for the final micro-batch only: hooks fire every
                    # backward, but buckets post exactly once per step, carrying
                    # the accumulated gradients with the 1/n micro-batch scale.
                    self.pipeline.arm(grad_scale)
                with self.tracer.span("trainer/forward", category="forward"):
                    loss = self.forward_loss(self.model, micro)
                total_loss += float(loss.item())
                # Category "backward" marks the window communication can hide
                # behind; measured-overlap reporting intersects comm spans
                # with exactly these intervals.
                with self.tracer.span("trainer/backward", category="backward", final=index == final_index):
                    if self.grad_scaler is not None:
                        self.grad_scaler.scale(loss).backward()
                    else:
                        loss.backward()
        # The one synchronisation point: whatever backward events did not post
        # already (everything, on a pipeline that was never armed) is posted
        # and drained here, scaled by 1/n and averaged across ranks.
        self.pipeline.flush(grad_scale)
        if self.grad_scaler is not None:
            self.grad_scaler.unscale_(self.optimizer)
        if self.preconditioner is not None:
            lr = self.optimizer.param_groups[0]["lr"]
            with self.tracer.span("trainer/precondition", category="precondition"):
                if getattr(self.preconditioner, "accepts_loss_feedback", False):
                    # Adaptive-damping preconditioners consume this step's loss
                    # (Levenberg-Marquardt actual-vs-predicted reduction).  Custom
                    # preconditioners without the property keep the plain call.
                    self.preconditioner.step(lr=lr, loss=total_loss / len(micro_batches))
                else:
                    self.preconditioner.step(lr=lr)
        with self.tracer.span("trainer/optimizer_step", category="optimizer"):
            if self.grad_scaler is not None:
                self.grad_scaler.step(self.optimizer)
                self.grad_scaler.update()
            else:
                self.optimizer.step()
        if self.lr_scheduler is not None:
            self.lr_scheduler.step()
        self.iterations += 1
        if self.iteration_time is not None:
            self.simulated_time += self.iteration_time
        return total_loss / len(micro_batches)

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> dict:
        """Complete checkpointable trainer state.

        Model weights, first-order optimizer buffers (momentum / Adam / LAMB
        moments), K-FAC factors and eigen state, LR-schedule position, loss
        scale and iteration counters all round-trip, so a restored trainer
        reproduces the exact training trajectory.
        """
        state = {
            "iterations": self.iterations,
            "simulated_time": self.simulated_time,
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "preconditioner": None,
            "lr_scheduler": None,
            "grad_scaler": None,
        }
        if self.preconditioner is not None:
            state["preconditioner"] = self.preconditioner.state_dict()
        if self.lr_scheduler is not None:
            state["lr_scheduler"] = self.lr_scheduler.state_dict()
        if self.grad_scaler is not None:
            state["grad_scaler"] = self.grad_scaler.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`.

        A component configured on this trainer but absent from the checkpoint
        (or vice versa) raises: resuming would silently keep stale state.
        """
        self.model.load_state_dict(state["model"])
        if "optimizer" not in state:
            raise ValueError(
                "checkpoint contains no optimizer state; it predates optimizer serialization "
                "and cannot restore the exact training trajectory"
            )
        self.optimizer.load_state_dict(state["optimizer"])
        for attr, key in (
            ("preconditioner", "preconditioner"),
            ("lr_scheduler", "lr_scheduler"),
            ("grad_scaler", "grad_scaler"),
        ):
            component = getattr(self, attr)
            component_state = state.get(key)
            if component_state is not None:
                if component is None:
                    raise ValueError(f"checkpoint contains {key} state but the trainer has no {key}")
                component.load_state_dict(component_state)
            elif component is not None:
                raise ValueError(
                    f"trainer has a {key} but the checkpoint contains no {key} state; "
                    "resuming would silently keep stale state"
                )
        self.iterations = int(state["iterations"])
        self.simulated_time = float(state["simulated_time"])

    def preconditioner_memory(self) -> dict:
        """Per-rank preconditioner state bytes (empty categories when none is set)."""
        if self.preconditioner is None:
            return {"factors": 0, "eigen": 0, "solver": 0, "total": 0}
        return dict(self.preconditioner.memory_usage())

    # ------------------------------------------------------------------- fit
    def fit(
        self,
        train_loader: Iterable,
        epochs: int,
        evaluate_fn: Optional[EvaluateFn] = None,
        curve: Optional[TrainingCurve] = None,
        eval_every_epochs: int = 1,
        target_metric: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> TrainingCurve:
        """Train for ``epochs`` epochs, recording the validation curve.

        Stops early when ``target_metric`` is reached (if given) or when
        ``max_iterations`` optimization steps have run.
        """
        if curve is None:
            curve = TrainingCurve(name="training")
        for epoch in range(epochs):
            epoch_loss = 0.0
            batches = 0
            for batch in train_loader:
                epoch_loss += self.train_step(batch)
                batches += 1
                if max_iterations is not None and self.iterations >= max_iterations:
                    break
            mean_loss = epoch_loss / max(batches, 1)
            if evaluate_fn is not None and (epoch + 1) % eval_every_epochs == 0:
                self.model.eval()
                metric = float(evaluate_fn(self.model))
                curve.record(
                    iteration=self.iterations,
                    epoch=float(epoch + 1),
                    metric=metric,
                    train_loss=mean_loss,
                    wall_time=time.perf_counter() - self._start_time,
                    simulated_time=self.simulated_time,
                )
                if target_metric is not None and curve.reached(target_metric):
                    break
            if max_iterations is not None and self.iterations >= max_iterations:
                break
        return curve
