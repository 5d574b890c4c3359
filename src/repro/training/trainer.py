"""Training loop used by the examples, tests and benchmarks.

The loop follows the paper's Listing 1 ordering exactly: backward, gradient
synchronization (data parallel), ``preconditioner.step(lr)`` at the rate the
optimizer is about to apply, ``optimizer.step()``.  Gradient accumulation
(section 4.2) and AMP loss scaling (section 4.1) slot in around that ordering
the same way they do in the reference implementation.

Gradient synchronization is one call,
:meth:`~repro.distributed.ddp.DistributedDataParallel.sync_gradients`, made
once per step after the last micro-batch's backward: the gradient-averaging
buckets, scaled by ``1/n`` and fused under the preconditioner's cap, are
posted and drained there, Listing 1's synchronisation point.  A hand-written
loop that calls it, then ``KFAC.step``, then ``optimizer.step`` gets the same
bits.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

from ..distributed.backend import Communicator, SingleProcessCommunicator
from ..distributed.ddp import DistributedDataParallel
from ..kfac.base import CHECKPOINT_FORMAT, check_checkpoint_format
from ..kfac.preconditioner import KFAC
from ..nn.module import Module
from ..optim.grad_scaler import GradScaler
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from .convergence import TrainingCurve

__all__ = ["Trainer"]

ForwardLoss = Callable[[Module, object], "object"]
EvaluateFn = Callable[[Module], float]


class Trainer:
    """Trainer that composes a model, an optimizer and (optionally) KAISA's :class:`~repro.kfac.KFAC`.

    Parameters
    ----------
    forward_loss:
        ``forward_loss(model, batch) -> loss Tensor``; the trainer stays
        agnostic of the workload's batch structure.
    preconditioner:
        Optional :class:`repro.kfac.KFAC` (anything else raises
        ``TypeError``); its ``step(lr=..., loss=...)`` is invoked between the
        gradient synchronization and the optimizer step, with the rate the
        optimizer is about to apply (``param_groups[0]["lr"]``, after any
        schedule), the KL clip's one source of it (the loss feeds its
        adaptive damping when configured and is ignored otherwise), and its
        state is included in :meth:`state_dict` for checkpoint/resume.
    iteration_time:
        Optional simulated seconds per iteration (from
        :class:`repro.kfac.IterationTimeModel`), used to accumulate the
        simulated wall-clock recorded in training curves.
    comm:
        The communicator gradients are averaged over (``self.ddp``, a
        :class:`~repro.distributed.ddp.DistributedDataParallel` in buckets
        capped at the preconditioner's ``plan.bucket_cap_mb``, 25 MB without
        one).  Without a ``comm`` no gradient is averaged, whatever the
        preconditioner communicates over; the ``1/n`` micro-batch scale is
        still applied.

    The trainer records its step / micro-batch / forward / backward /
    gradient-sync / optimizer spans into the rank's tracer, ``comm.tracer``
    (with no ``comm``, the preconditioner's communicator's): the one the
    collective engine and the preconditioner record into, so one trace covers
    the whole stack once it is enabled (``REPRO_TRACE=1`` or
    ``comm.tracer.enabled = True``).  Tracing never changes numerics.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        forward_loss: ForwardLoss,
        preconditioner: Optional[KFAC] = None,
        lr_scheduler: Optional[LRScheduler] = None,
        grad_scaler: Optional[GradScaler] = None,
        comm: Optional[Communicator] = None,
        iteration_time: Optional[float] = None,
    ) -> None:
        if preconditioner is not None and not isinstance(preconditioner, KFAC):
            raise TypeError(f"preconditioner must be a repro.kfac.KFAC or None, got {type(preconditioner).__name__}")
        self.model = model
        self.optimizer = optimizer
        self.forward_loss = forward_loss
        self.preconditioner = preconditioner
        self.lr_scheduler = lr_scheduler
        self.grad_scaler = grad_scaler
        self.comm = comm
        self.iteration_time = iteration_time
        rank_comm = preconditioner.comm if comm is None and preconditioner is not None else comm
        if comm is None:
            # Without a comm nothing is averaged; a single-rank preconditioner's
            # communicator averages nothing either and keeps the rank at one tracer.
            single = rank_comm is not None and rank_comm.world_size == 1
            comm = rank_comm if single else SingleProcessCommunicator()
        # The plan's cap, so gradient and factor traffic share one fusion granularity.
        bucket_cap_mb = 25.0 if preconditioner is None else preconditioner.plan.bucket_cap_mb
        self.ddp = DistributedDataParallel(model, comm, broadcast_initial=False, bucket_cap_mb=bucket_cap_mb)
        self.tracer = (rank_comm if rank_comm is not None else comm).tracer
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
        if not micro_batches:
            raise ValueError("train_step got an empty list of micro-batches; pass at least one batch")
        self.model.train()
        self.optimizer.zero_grad()
        total_loss = 0.0
        final_index = len(micro_batches) - 1
        for index, micro in enumerate(micro_batches):
            with self.tracer.span("trainer/micro_batch", category="step", index=index):
                with self.tracer.span("trainer/forward", category="forward"):
                    loss = self.forward_loss(self.model, micro)
                total_loss += float(loss.item())
                # Category "backward" marks backprop: no collective is in
                # flight inside it, every one is posted after it.
                with self.tracer.span("trainer/backward", category="backward", final=index == final_index):
                    if self.grad_scaler is not None:
                        self.grad_scaler.scale(loss).backward()
                    else:
                        loss.backward()
        # The one synchronisation point: accumulated gradients are scaled by
        # 1/n (the effective loss is the mean) and averaged across ranks.
        with self.tracer.span("trainer/grad_sync", category="sync"):
            self.ddp.sync_gradients(1.0 / len(micro_batches))
        if self.grad_scaler is not None:
            self.grad_scaler.unscale_(self.optimizer)
        if self.preconditioner is not None:
            lr = self.optimizer.param_groups[0]["lr"]
            with self.tracer.span("trainer/precondition", category="precondition"):
                # The loss drives adaptive damping (Levenberg-Marquardt
                # actual-vs-predicted reduction); KFAC ignores it otherwise.
                self.preconditioner.step(lr=lr, loss=total_loss / len(micro_batches))
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
        """Complete checkpointable trainer state, in :data:`~repro.kfac.base.CHECKPOINT_FORMAT`.

        Model weights, first-order optimizer buffers (momentum / Adam / LAMB
        moments), K-FAC factors and eigen state, LR-schedule position, loss
        scale and iteration counters all round-trip, so a restored trainer
        reproduces the exact training trajectory.
        """
        state = {
            "format": CHECKPOINT_FORMAT,
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

        The format number and the presence of every component are checked
        before anything is loaded.  A component configured on this trainer but
        absent from the checkpoint (or vice versa) raises: resuming would
        silently keep stale state.  A component that refuses its own state
        once loading began rolls every component back to the state it had, so
        a refused restore leaves the trainer as it was.
        """
        check_checkpoint_format(state, "Trainer")
        components = {
            "preconditioner": self.preconditioner,
            "lr_scheduler": self.lr_scheduler,
            "grad_scaler": self.grad_scaler,
        }
        for key, component in components.items():
            if state[key] is not None and component is None:
                raise ValueError(f"checkpoint contains {key} state but the trainer has no {key}")
            if state[key] is None and component is not None:
                raise ValueError(
                    f"trainer has a {key} but the checkpoint contains no {key} state; "
                    "resuming would silently keep stale state"
                )
        previous = self.state_dict()
        try:
            self._load(state, components)
        except Exception:
            self._load(previous, components)
            raise

    def _load(self, state: dict, components: dict) -> None:
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        for key, component in components.items():
            if component is not None:
                component.load_state_dict(state[key])
        self.iterations = int(state["iterations"])
        self.simulated_time = float(state["simulated_time"])

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
