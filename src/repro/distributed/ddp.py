"""Data-parallel training helpers (the DistributedDataParallel analogue).

Gradients are averaged across ranks after the backward pass, mirroring the
bucketed allreduce of ``torch.nn.parallel.DistributedDataParallel`` that the
paper uses for the first-order (data-parallel) part of training (Figure 3,
blue boxes).  There is one description of that traffic,
:class:`GradientAveragingSubscriber`: one float32 spec per trainable
parameter in reverse parameter order (the order gradients become ready during
backward, as in DDP), fused into ``bucket_cap_mb``-capped buffers by the
bucketed engine (:mod:`repro.distributed.collectives`).  The
:class:`~repro.training.trainer.Trainer` posts those specs through its
:class:`~repro.training.pipeline.GradientPipeline`; a hand-written Listing-1
loop posts the same specs with :meth:`DistributedDataParallel.sync_gradients`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..nn.module import Module, Parameter
from .backend import Communicator
from .collectives import GradientBucketSpec, OverlapScheduler

__all__ = [
    "flatten_arrays",
    "unflatten_array",
    "broadcast_parameters",
    "GradientAveragingSubscriber",
    "DistributedDataParallel",
]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate arrays into a single flat float32 buffer."""
    if not arrays:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate([np.asarray(a, dtype=np.float32).reshape(-1) for a in arrays])


def unflatten_array(flat: np.ndarray, shapes: Sequence[tuple]) -> List[np.ndarray]:
    """Split a flat buffer back into arrays of the given shapes."""
    out: List[np.ndarray] = []
    offset = 0
    for shape in shapes:
        count = int(np.prod(shape)) if shape else 1
        out.append(flat[offset : offset + count].reshape(shape))
        offset += count
    if offset != flat.size:
        raise ValueError("flat buffer size does not match the provided shapes")
    return out


def broadcast_parameters(model: Module, comm: Communicator, src: int = 0) -> None:
    """Broadcast rank ``src``'s parameters to every rank (initial replica synchronization)."""
    if comm.world_size == 1:
        return
    params = list(model.parameters())
    flat_src = flatten_arrays([p.data for p in params]) if comm.rank == src else None
    flat = comm.broadcast(flat_src, src=src)
    for param, data in zip(params, unflatten_array(flat, [p.data.shape for p in params])):
        param.data = data.astype(param.data.dtype).reshape(param.data.shape)


class GradientAveragingSubscriber:
    """DDP gradient averaging as a gradient-pipeline subscriber.

    Publishes one bucket spec per trainable parameter, in reverse parameter
    order (the order gradients become ready during backward, exactly as
    ``torch.nn.parallel.DistributedDataParallel`` fills its buckets).  Each
    spec is gated on the parameter's grad-ready event and carries the
    micro-batch ``grad_scale``, which the engine applies once per fused bucket
    before the allreduce-average; completion binds ``param.grad`` to the
    averaged gradient where it lies in the drained bucket (a view: nothing is
    copied out, and the array ``param.grad`` was bound to is not written).

    Between ranks gradients travel, and are installed, as float32.  A single
    rank has nobody to average with: without a micro-batch scale it publishes
    nothing (``param.grad`` is left untouched — not copied, not cast), and
    under gradient accumulation the ``1/n`` scale keeps the gradient's dtype.
    """

    def __init__(self, model: Module) -> None:
        self.model = model

    def pipeline_specs(self, pipeline) -> List[GradientBucketSpec]:
        return self.specs(pipeline.grad_scale, pipeline.comm.world_size)

    def specs(self, grad_scale: float, world_size: int) -> List[GradientBucketSpec]:
        scale = float(grad_scale)
        if world_size == 1 and scale == 1.0:
            return []
        params = [p for p in self.model.parameters() if p.requires_grad]
        specs: List[GradientBucketSpec] = []
        for index, param in list(enumerate(params))[::-1]:
            dtype = np.dtype(np.float32) if world_size > 1 else param.data.dtype

            def install(reduced: np.ndarray, param=param, dtype=dtype) -> None:
                # A view of the drained bucket, not a copy: the bucket is the
                # gradient storage until ``zero_grad`` drops the last view.
                param.grad = reduced.astype(dtype, copy=False).reshape(param.data.shape)

            specs.append(
                GradientBucketSpec(
                    key=f"grad/{index}",
                    shape=param.data.shape,
                    dtype=dtype,
                    payload=lambda param=param, dtype=dtype: np.asarray(param.grad, dtype=dtype),
                    on_complete=install,
                    params=(param,),
                    scale=scale,
                    # Posted at flush() whenever a gradient exists: on a
                    # pipeline that was never armed, and for a parameter that
                    # accumulated gradients in earlier micro-batches yet sat
                    # out the armed backward (its gate then never fires).
                    flush_ready=lambda param=param: param.grad is not None,
                )
            )
        return specs


class DistributedDataParallel:
    """Thin wrapper bundling a model replica with its communicator.

    Usage mirrors the paper's Listing 1: construct once, call the model as
    usual, then call :meth:`sync_gradients` after ``loss.backward()`` and
    before the preconditioner / optimizer step.
    """

    def __init__(
        self,
        model: Module,
        comm: Communicator,
        broadcast_initial: bool = True,
        bucket_cap_mb: float = 25.0,
    ) -> None:
        self.module = model
        self.comm = comm
        self.scheduler = OverlapScheduler(comm, bucket_cap_mb)
        if broadcast_initial:
            broadcast_parameters(model, comm, src=0)

    def __call__(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    def parameters(self):
        return self.module.parameters()

    def train(self, mode: bool = True) -> "DistributedDataParallel":
        self.module.train(mode)
        return self

    def eval(self) -> "DistributedDataParallel":
        self.module.eval()
        return self

    def sync_gradients(self) -> None:
        """Allreduce-average every existing gradient across all ranks (fused per ``bucket_cap_mb``)."""
        specs = self.subscriber().specs(grad_scale=1.0, world_size=self.comm.world_size)
        self.scheduler.run_allreduces([spec.to_allreduce() for spec in specs if spec.flush_ready()])

    def subscriber(self) -> GradientAveragingSubscriber:
        """Pipeline subscriber averaging this replica's gradients during backward."""
        return GradientAveragingSubscriber(self.module)
