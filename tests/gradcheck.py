"""Numerical-gradient and tape-inspection helpers shared by the test suite.

Kept in a uniquely-named module (not ``conftest``) so test modules can import
it by name under rootdir pytest runs, where ``benchmarks/conftest.py`` would
otherwise shadow ``tests/conftest.py`` on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn(x.copy())
        flat[index] = original - eps
        minus = fn(x.copy())
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, x: np.ndarray, atol: float = 1e-3, rtol: float = 1e-2) -> None:
    """Compare the autograd gradient of ``build_loss`` against finite differences.

    ``build_loss(tensor)`` must return a scalar :class:`Tensor` computed from
    the input tensor; the numerical gradient is computed in float64 to keep
    the finite-difference error small.
    """
    tensor = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True, dtype="float64")
    loss = build_loss(tensor)
    loss.backward()
    analytic = tensor.grad

    def scalar(values: np.ndarray) -> float:
        return float(build_loss(Tensor(values, dtype="float64")).item())

    numeric = numerical_gradient(scalar, np.asarray(x, dtype=np.float64))
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def graph_nodes(out: Tensor) -> list:
    """Every distinct autograd node reachable from ``out`` (the leaves have none)."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        tensor = stack.pop()
        if tensor._ctx is not None and id(tensor._ctx) not in seen:
            seen.add(id(tensor._ctx))
            nodes.append(tensor._ctx)
            stack.extend(tensor._ctx.parents)
    return nodes


def on_output_grad(module, hook):
    """Call ``hook(grad)`` with the gradient w.r.t. each differentiated output of ``module``, once per backward.

    A forward hook puts a tensor hook on the call's output, as K-FAC's layers
    capture G; returns the forward hook's handle (removing it arms no later call).
    """

    def arm(_module, _inputs, output):
        if isinstance(output, Tensor) and output.requires_grad:
            output.register_hook(hook)

    return module.register_forward_hook(arm)
