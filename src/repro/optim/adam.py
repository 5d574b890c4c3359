"""Adam and AdamW optimizers."""

from __future__ import annotations

import numpy as np

from .optimizer import Optimizer, ParamRun

__all__ = ["Adam", "AdamW"]


def adam_direction(run: ParamRun, grad: np.ndarray, update: np.ndarray, beta1: float, beta2: float, eps: float) -> np.ndarray:
    """Count the run's step, fold ``grad`` into its moments and leave ``m_hat / (sqrt(v_hat) + eps)`` in ``update``.

    Shared by Adam and LAMB.  The moments are updated where they live,
    ``update`` holds each temporary in turn, and ``grad`` is consumed: once the
    moments have read it it holds the denominator, and it is returned as
    scratch for the caller.
    """
    step = run.advance()
    exp_avg, exp_avg_sq = run.state("exp_avg"), run.state("exp_avg_sq")
    np.multiply(grad, 1 - beta1, out=update)
    exp_avg *= beta1
    exp_avg += update
    np.multiply(grad, 1 - beta2, out=update)
    update *= grad
    exp_avg_sq *= beta2
    exp_avg_sq += update
    denom = np.divide(exp_avg_sq, 1 - beta2 ** step, out=grad)  # v_hat
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(exp_avg, 1 - beta1 ** step, out=update)  # m_hat
    update /= denom
    return denom


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with optional L2 weight decay added to the gradient."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= betas[0] < 1.0 or not 0.0 <= betas[1] < 1.0:
            raise ValueError(f"invalid betas {betas}")
        super().__init__(params, {"lr": lr, "betas": tuple(betas), "eps": eps, "weight_decay": weight_decay})

    decoupled_weight_decay = False

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            weight_decay = group["weight_decay"]
            for run in self.runs(group):
                # float32 arithmetic throughout; ``data`` is fresh and ends up as the new parameters.
                grad = run.grads()
                update = np.empty(run.size, dtype=np.float32)
                data = run.data()
                if weight_decay != 0.0 and not self.decoupled_weight_decay:
                    np.multiply(data, weight_decay, out=update)
                    grad += update
                scratch = adam_direction(run, grad, update, beta1, beta2, eps)
                if weight_decay != 0.0 and self.decoupled_weight_decay:
                    np.multiply(data, weight_decay, out=scratch)
                    update += scratch
                update *= lr
                data -= update
                run.assign(data)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter 2019)."""

    decoupled_weight_decay = True
