"""The per-parameter optimizer loops, as plain expressions: the oracle the fused steps are held to.

``repro.optim``'s ``SGD``, ``Adam`` / ``AdamW`` and ``LAMB`` step blocks of
parameters at once (``Optimizer.runs``); what they must compute, bit for bit,
is what these three functions compute one parameter at a time -- the
expressions ``src/`` ran before the steps were fused.  :class:`LoopOptimizer`
wraps them in just enough optimizer (``param_groups``, ``zero_grad``,
``step``) to drive a :class:`~repro.training.Trainer`, so whole training
trajectories can be compared too.  Nothing here is imported by ``src/``.
"""

import functools

import numpy as np


def sgd_reference_step(data, grad, state, lr, momentum=0.0, weight_decay=0.0, nesterov=False):
    """One SGD update of one parameter: ``(new data, state)``; ``state`` is ``None`` before the first."""
    state = {} if state is None else state
    grad = grad.astype(np.float32)
    if weight_decay != 0.0:
        grad = grad + weight_decay * data.astype(np.float32)
    if momentum != 0.0:
        buf = state.get("momentum_buffer")
        buf = grad.copy() if buf is None else momentum * buf + grad
        state["momentum_buffer"] = buf
        grad = grad + momentum * buf if nesterov else buf
    return (data.astype(np.float32) - lr * grad).astype(data.dtype), state


def adam_reference_step(
    data, grad, state, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8, decoupled_weight_decay=False
):
    """One Adam (``decoupled_weight_decay=True``: AdamW) update of one parameter: ``(new data, state)``."""
    beta1, beta2 = betas
    out_dtype = data.dtype
    grad = grad.astype(np.float32)
    data = data.astype(np.float32)
    if weight_decay != 0.0 and not decoupled_weight_decay:
        grad = grad + weight_decay * data
    if state is None:
        state = {"step": 0, "exp_avg": np.zeros_like(data), "exp_avg_sq": np.zeros_like(data)}
    state["step"] += 1
    step = state["step"]
    state["exp_avg"] = beta1 * state["exp_avg"] + (1 - beta1) * grad
    state["exp_avg_sq"] = beta2 * state["exp_avg_sq"] + (1 - beta2) * grad * grad
    update = (state["exp_avg"] / (1 - beta1 ** step)) / (np.sqrt(state["exp_avg_sq"] / (1 - beta2 ** step)) + eps)
    if weight_decay != 0.0 and decoupled_weight_decay:
        update = update + weight_decay * data
    return (data - lr * update).astype(out_dtype), state


def lamb_reference_step(data, grad, state, lr, weight_decay=0.01, betas=(0.9, 0.999), eps=1e-6, clamp_trust_ratio=(0.0, 10.0)):
    """One LAMB update of one parameter: ``(new data, state)``."""
    beta1, beta2 = betas
    low, high = clamp_trust_ratio
    out_dtype = data.dtype
    grad = grad.astype(np.float32)
    data = data.astype(np.float32)
    if state is None:
        state = {"step": 0, "exp_avg": np.zeros_like(data), "exp_avg_sq": np.zeros_like(data)}
    state["step"] += 1
    step = state["step"]
    state["exp_avg"] = beta1 * state["exp_avg"] + (1 - beta1) * grad
    state["exp_avg_sq"] = beta2 * state["exp_avg_sq"] + (1 - beta2) * grad * grad
    m_hat = state["exp_avg"] / (1 - beta1 ** step)
    v_hat = state["exp_avg_sq"] / (1 - beta2 ** step)
    update = m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay != 0.0:
        update = update + weight_decay * data
    weight_norm = float(np.linalg.norm(data))
    update_norm = float(np.linalg.norm(update))
    if weight_norm > 0.0 and update_norm > 0.0:
        trust_ratio = weight_norm / update_norm
        if high > 0:
            trust_ratio = min(max(trust_ratio, low), high)
    else:
        trust_ratio = 1.0
    return (data - lr * trust_ratio * update).astype(out_dtype), state


#: Optimizer name -> reference step; each takes the group's hyperparameters by keyword, under the group's names.
REFERENCE_STEPS = {
    "sgd": sgd_reference_step,
    "adam": adam_reference_step,
    "adamw": functools.partial(adam_reference_step, decoupled_weight_decay=True),
    "lamb": lamb_reference_step,
}


class LoopOptimizer:
    """``kind`` (``"sgd"`` / ``"adam"`` / ``"adamw"`` / ``"lamb"``) as one reference step per parameter per step.

    ``params`` is a list of parameters or of group dicts, and ``hyper`` the
    group defaults (``lr`` among them), as for the ``repro.optim`` class of
    that name; what ``hyper`` leaves out takes the reference step's default.
    """

    def __init__(self, kind, params, **hyper):
        self.reference_step = REFERENCE_STEPS[kind]
        params = list(params)
        groups = params if isinstance(params[0], dict) else [{"params": params}]
        self.param_groups = [{**hyper, **group, "params": list(group["params"])} for group in groups]
        self.state = {}

    def zero_grad(self):
        for group in self.param_groups:
            for param in group["params"]:
                param.grad = None

    def step(self):
        for group in self.param_groups:
            hyper = {key: value for key, value in group.items() if key != "params"}
            for param in group["params"]:
                if param.grad is not None:
                    param.data, self.state[id(param)] = self.reference_step(
                        param.data, param.grad, self.state.get(id(param)), **hyper
                    )
