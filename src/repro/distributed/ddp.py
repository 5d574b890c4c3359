"""Data-parallel training helpers (the DistributedDataParallel analogue).

Gradients are averaged across ranks after the backward pass, mirroring the
bucketed allreduce of ``torch.nn.parallel.DistributedDataParallel`` that the
paper uses for the first-order (data-parallel) part of training (Figure 3,
blue boxes).  There is one description of that traffic,
:func:`gradient_specs`: one float32 spec per trainable parameter with a
gradient, in reverse parameter order (the order gradients become ready during
backward, as in DDP), fused into ``bucket_cap_mb``-capped buffers by the
bucketed engine (:mod:`repro.distributed.collectives`).  There is one path
that posts them, :meth:`DistributedDataParallel.sync_gradients`: the
:class:`~repro.training.trainer.Trainer` calls it, and so does a hand-written
Listing-1 loop.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..nn.module import Module
from .backend import Communicator
from .collectives import AllreduceSpec, OverlapScheduler

__all__ = [
    "flatten_arrays",
    "unflatten_array",
    "broadcast_parameters",
    "gradient_specs",
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


def gradient_specs(model: Module, world_size: int, grad_scale: float = 1.0) -> List[AllreduceSpec]:
    """The allreduce specs that average ``model``'s gradients: one per trainable parameter with a gradient.

    Specs run in reverse parameter order (the order gradients become ready
    during backward, exactly as ``torch.nn.parallel.DistributedDataParallel``
    fills its buckets).  A parameter without a gradient is not averaged.  Each
    spec carries the micro-batch ``grad_scale``, which the engine applies once
    per fused bucket before the allreduce-average; completion binds
    ``param.grad`` to the averaged gradient where it lies in the drained
    bucket (a view: nothing is copied out, and the array ``param.grad`` was
    bound to is not written).

    Between ranks gradients travel, and are installed, as float32.  A single
    rank has nobody to average with: without a micro-batch scale there are no
    specs (``param.grad`` is left untouched — not copied, not cast), and under
    gradient accumulation the ``1/n`` scale keeps the gradient's dtype.
    """
    scale = float(grad_scale)
    if world_size == 1 and scale == 1.0:
        return []
    params = [p for p in model.parameters() if p.requires_grad]
    specs: List[AllreduceSpec] = []
    for index, param in list(enumerate(params))[::-1]:
        if param.grad is None:
            continue
        dtype = np.dtype(np.float32) if world_size > 1 else param.data.dtype

        def install(reduced: np.ndarray, param=param, dtype=dtype) -> None:
            # A view of the drained bucket, not a copy: the bucket is the
            # gradient storage until ``zero_grad`` drops the last view.
            param.grad = reduced.astype(dtype, copy=False).reshape(param.data.shape)

        specs.append(
            AllreduceSpec(
                key=f"grad/{index}",
                shape=param.data.shape,
                dtype=dtype,
                payload=lambda param=param, dtype=dtype: np.asarray(param.grad, dtype=dtype),
                on_complete=install,
                scale=scale,
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

    def sync_gradients(self, grad_scale: float = 1.0) -> None:
        """Listing 1's synchronisation point: scale by ``grad_scale`` and allreduce-average every existing gradient.

        The :func:`gradient_specs` run fused per ``bucket_cap_mb``; the
        :class:`~repro.training.trainer.Trainer` calls this once per step
        with the ``1/n`` of its micro-batches.  Under the runtime sanitizer
        the rank must then have no posted collective left unfinished.
        """
        self.scheduler.run_allreduces(gradient_specs(self.module, self.comm.world_size, grad_scale))
        sanitizer = self.scheduler.sanitizer
        if sanitizer is not None:
            sanitizer.assert_drained(self.comm.rank, where="ddp/sync_gradients")
