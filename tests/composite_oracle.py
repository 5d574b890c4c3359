"""The composite Conv2d / BatchNorm2d / Linear / LayerNorm forward passes the fused nodes replaced.

Kept as the test oracle: many small autograd nodes built from ``F.unfold``,
matmul and elementwise tensor ops, so both the values and the gradients of
:func:`repro.nn.functional.conv2d` / :class:`repro.nn.BatchNorm2d` /
:func:`repro.nn.functional.linear` / :func:`repro.nn.functional.layer_norm`
can be compared against an independent derivation by the tape.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.tensor import Tensor


def conv2d_composite(x: Tensor, weight: Tensor, bias, stride: int, padding: int) -> Tensor:
    """unfold -> reshape -> broadcast matmul -> add -> reshape (five nodes)."""
    n, _, h, w = x.shape
    out_c, _, kh, kw = weight.shape
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    cols = F.unfold(x, (kh, kw), stride, padding)  # (N, C*kh*kw, L)
    out = weight.reshape(out_c, -1) @ cols  # broadcasts to (N, out_c, L)
    if bias is not None:
        out = out + bias.reshape(1, out_c, 1)
    return out.reshape(n, out_c, out_h, out_w)


def batchnorm2d_composite(x: Tensor, weight, bias, eps: float, running=None):
    """Elementwise batch norm; returns ``(output, batch_mean, batch_var)``.

    ``running=(mean, var)`` normalizes with those constants (eval mode) and
    the returned statistics are ``None``.
    """
    if running is None:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        stats = (mean.data.reshape(-1), var.data.reshape(-1))
    else:
        mean = Tensor(np.asarray(running[0]).reshape(1, -1, 1, 1).astype(x.dtype))
        var = Tensor(np.asarray(running[1]).reshape(1, -1, 1, 1).astype(x.dtype))
        stats = (None, None)
    out = (x - mean) / ((var + eps) ** 0.5)
    if weight is not None:
        out = out * weight.reshape(1, -1, 1, 1) + bias.reshape(1, -1, 1, 1)
    return out, stats[0], stats[1]


def linear_composite(x: Tensor, weight: Tensor, bias) -> Tensor:
    """broadcast matmul -> add (transpose, matmul, add: three nodes; one GEMM per leading index)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def layernorm_composite(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Elementwise layer norm over the last axis (a dozen nodes)."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    x_hat = (x - mean) / ((var + eps) ** 0.5)
    return x_hat * weight + bias
