"""Stochastic gradient descent with momentum."""

from __future__ import annotations

import numpy as np

from .optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """SGD with momentum, weight decay and optional Nesterov acceleration.

    Matches the PyTorch update rule used as the paper's baseline optimizer
    for ResNet-50, Mask R-CNN and (via ADAM) U-Net experiments.
    """

    def __init__(
        self,
        params,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        if lr < 0.0:
            raise ValueError(f"invalid learning rate {lr}")
        if momentum < 0.0:
            raise ValueError(f"invalid momentum {momentum}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        super().__init__(params, {"lr": lr, "momentum": momentum, "weight_decay": weight_decay, "nesterov": nesterov})

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            momentum = group["momentum"]
            weight_decay = group["weight_decay"]
            nesterov = group["nesterov"]
            for run in self.runs(group):
                # float32 arithmetic throughout; ``data`` is fresh and ends up as the new parameters.
                grad = run.grads()
                scratch = np.empty(run.size, dtype=np.float32)
                data = run.data()
                if weight_decay != 0.0:
                    np.multiply(data, weight_decay, out=scratch)
                    grad += scratch
                if momentum != 0.0:
                    first = "momentum_buffer" not in run.states[0]
                    buf = run.state("momentum_buffer")
                    if first:
                        buf[...] = grad
                    else:
                        buf *= momentum
                        buf += grad
                    if nesterov:
                        np.multiply(buf, momentum, out=scratch)
                        grad += scratch
                    else:
                        grad = buf
                np.multiply(grad, lr, out=scratch)
                data -= scratch
                run.assign(data)
