"""LAMB optimizer (You et al. 2019), the paper's BERT baseline ("Fused LAMB")."""

from __future__ import annotations

import numpy as np

from .adam import adam_direction
from .optimizer import Optimizer

__all__ = ["LAMB"]


class LAMB(Optimizer):
    """Layer-wise Adaptive Moments for large-batch training.

    The per-layer trust ratio ``||w|| / ||update||`` rescales the Adam-style
    update, which is what allows BERT pretraining with batch sizes of 32K+.
    The paper uses NVIDIA's Fused LAMB; like it, the step here is fused over
    blocks of parameters (:meth:`Optimizer.runs`) and only the two norms and
    the trust-ratio scale run per parameter.
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
            for run in self.runs(group):
                # float32 arithmetic throughout; ``data`` is fresh and ends up as the new parameters.
                grad = run.grads()
                update = np.empty(run.size, dtype=np.float32)
                data = run.data()
                scratch = adam_direction(run, grad, update, beta1, beta2, eps)
                if weight_decay != 0.0:
                    np.multiply(data, weight_decay, out=scratch)
                    update += scratch

                # The trust ratio is per parameter by definition: two norms and one scale, on views.
                # ``sqrt(x . x)`` in float32 is what ``np.linalg.norm`` computes, without its wrapper.
                weights, updates = run.split(data), run.split(update)
                squares = [view.dot(view) for view in weights] + [view.dot(view) for view in updates]
                norms = np.sqrt(np.array(squares, dtype=np.float32)).tolist()
                for weight_norm, update_norm, layer_update in zip(norms, norms[len(weights) :], updates):
                    if weight_norm > 0.0 and update_norm > 0.0:
                        trust_ratio = weight_norm / update_norm
                        if high > 0:
                            trust_ratio = min(max(trust_ratio, low), high)
                    else:
                        trust_ratio = 1.0
                    layer_update *= lr * trust_ratio
                data -= update
                run.assign(data)
