"""LAMB optimizer (You et al. 2019), the paper's BERT baseline ("Fused LAMB")."""

from __future__ import annotations

import numpy as np

from .optimizer import Optimizer

__all__ = ["LAMB"]


class LAMB(Optimizer):
    """Layer-wise Adaptive Moments for large-batch training.

    The per-layer trust ratio ``||w|| / ||update||`` rescales the Adam-style
    update, which is what allows BERT pretraining with batch sizes of 32K+.
    The paper uses NVIDIA's Fused LAMB; this is a functionally equivalent
    unfused implementation.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.01,
        clamp_trust_ratio: tuple[float, float] = (0.0, 10.0),
    ) -> None:
        super().__init__(
            params,
            {
                "lr": lr,
                "betas": tuple(betas),
                "eps": eps,
                "weight_decay": weight_decay,
                "clamp_trust_ratio": tuple(clamp_trust_ratio),
            },
        )

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            weight_decay = group["weight_decay"]
            low, high = group["clamp_trust_ratio"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                # float32 arithmetic throughout; float32 parameters are read where they are.
                grad = param.grad.astype(np.float32, copy=False)
                data = param.data.astype(np.float32, copy=False)
                state = self.state_for(param)
                if "step" not in state:
                    state["step"] = 0
                    state["exp_avg"] = np.zeros_like(data)
                    state["exp_avg_sq"] = np.zeros_like(data)
                state["step"] += 1
                step = state["step"]
                exp_avg, exp_avg_sq = state["exp_avg"], state["exp_avg_sq"]
                # The moments are updated where they live; ``scratch`` holds each
                # temporary in turn and ``update`` ends up as the new parameter.
                scratch, update = np.empty_like(data), np.empty_like(data)
                np.multiply(grad, 1 - beta1, out=scratch)
                exp_avg *= beta1
                exp_avg += scratch
                np.multiply(grad, 1 - beta2, out=scratch)
                scratch *= grad
                exp_avg_sq *= beta2
                exp_avg_sq += scratch
                np.divide(exp_avg_sq, 1 - beta2 ** step, out=scratch)  # v_hat
                np.sqrt(scratch, out=scratch)
                scratch += eps
                np.divide(exp_avg, 1 - beta1 ** step, out=update)  # m_hat
                update /= scratch
                if weight_decay != 0.0:
                    np.multiply(data, weight_decay, out=scratch)
                    update += scratch

                weight_norm = float(np.linalg.norm(data))
                update_norm = float(np.linalg.norm(update))
                if weight_norm > 0.0 and update_norm > 0.0:
                    trust_ratio = weight_norm / update_norm
                    if high > 0:
                        trust_ratio = min(max(trust_ratio, low), high)
                else:
                    trust_ratio = 1.0
                update *= lr * trust_ratio
                np.subtract(data, update, out=update)
                param.data = update.astype(param.data.dtype, copy=False)
