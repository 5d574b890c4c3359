"""The composite forward passes the fused nodes replaced.

Kept as the test oracle: many small autograd nodes built from :func:`unfold`
(a differentiable ``F.im2col``, kept here since only tests call it), matmul
and elementwise tensor ops, so both the values and the gradients of
:func:`repro.nn.functional.conv2d` / :class:`repro.nn.BatchNorm2d` /
:func:`repro.nn.functional.linear` / :func:`repro.nn.functional.layer_norm` /
:func:`repro.nn.functional.gelu` / :func:`repro.nn.functional.softmax` /
:func:`repro.nn.functional.scaled_dot_product_attention` /
:func:`repro.nn.functional.cross_entropy` can be compared against an
independent derivation by the tape.  :func:`use_composite_transformer` puts a
whole model back on them.
"""

from __future__ import annotations

import math

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.tensor import Tensor
from repro.tensor.tensor import Function


class Unfold(Function):
    """Differentiable im2col: ``(N,C,H,W) -> (N, C*kh*kw, out_h*out_w)``."""

    def forward(self, x, kernel, stride, padding):
        cols, out_h, out_w = F.im2col(x, kernel, stride, padding)
        self.save_for_backward(x.shape, kernel, stride, padding)
        return cols

    def backward(self, grad):
        x_shape, kernel, stride, padding = self.saved
        return (F.col2im(grad, x_shape, kernel, stride, padding),)


def unfold(x: Tensor, kernel, stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable patch extraction on a :class:`Tensor`."""
    return Unfold.apply(x, kernel=tuple(kernel), stride=int(stride), padding=int(padding))


def conv2d_composite(x: Tensor, weight: Tensor, bias, stride: int, padding: int) -> Tensor:
    """unfold -> reshape -> broadcast matmul -> add -> reshape (five nodes)."""
    n, _, h, w = x.shape
    out_c, _, kh, kw = weight.shape
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    cols = unfold(x, (kh, kw), stride, padding)  # (N, C*kh*kw, L)
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


def softmax_composite(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max, sub, exp, sum, div: five nodes)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


_GELU_CONST = float(np.sqrt(2.0 / np.pi))


def gelu_composite(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation): nine elementwise nodes."""
    inner = _GELU_CONST * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def attention_composite(q: Tensor, k: Tensor, v: Tensor, bias, scale: float, dropout=None) -> Tensor:
    """The body of ``MultiHeadSelfAttention.forward`` between its projections, one node per operation.

    ``dropout`` is applied to the softmax weights: the module's ``Dropout``, or
    any callable on a tensor (e.g. a product with a fixed mask).
    """
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if bias is not None:
        scores = scores + Tensor(bias.astype(q.dtype))
    weights = softmax_composite(scores, axis=-1)
    if dropout is not None:
        weights = dropout(weights)
    return weights @ v  # (N, H, L, d)


def cross_entropy_composite(logits: Tensor, targets, ignore_index: int = -100, label_smoothing: float = 0.0) -> Tensor:
    """reshape -> gather valid rows -> log-softmax -> gather targets -> mean (plus the smoothing term's two means).

    ``nn.CrossEntropyLoss`` ran this chain (without the gather) before the
    fused node; the smoothed loss is ``(1-ε)·nll + ε·mean(-log_softmax)``.
    """
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    valid = np.nonzero(flat_targets != ignore_index)[0]
    if valid.size == 0:
        return (flat_logits * 0.0).sum()
    logp = F.log_softmax(flat_logits[valid], axis=-1)
    nll = -logp[np.arange(valid.size), flat_targets[valid]].mean()
    if label_smoothing > 0.0:
        smooth = -logp.mean(axis=-1).mean()
        return (1.0 - label_smoothing) * nll + label_smoothing * smooth
    return nll


def attention_forward_composite(self, x: Tensor, attention_mask=None) -> Tensor:
    """``MultiHeadSelfAttention.forward`` on :func:`attention_composite`, drawing dropout through ``Dropout.forward``."""
    batch, length, _ = x.shape
    q = self._split_heads(self.query(x), batch, length)
    k = self._split_heads(self.key(x), batch, length)
    v = self._split_heads(self.value(x), batch, length)
    bias = None
    if attention_mask is not None:
        # attention_mask: (N, L) with 1 for valid tokens, 0 for padding.
        mask = np.asarray(attention_mask, dtype=x.dtype)
        bias = (1.0 - mask)[:, None, None, :] * -1e4
    context = attention_composite(q, k, v, bias, 1.0 / math.sqrt(self.head_dim), self.dropout)
    context = context.transpose(0, 2, 1, 3).reshape(batch, length, self.embed_dim)
    return self.out(context)


def use_composite_transformer(monkeypatch) -> None:
    """Put ``GELU``, ``MultiHeadSelfAttention`` and ``MaskedLMCrossEntropyLoss`` back on the composites."""
    monkeypatch.setattr(nn.GELU, "forward", lambda self, x: gelu_composite(x))
    monkeypatch.setattr(nn.MultiHeadSelfAttention, "forward", attention_forward_composite)
    monkeypatch.setattr(
        nn.MaskedLMCrossEntropyLoss,
        "forward",
        lambda self, logits, targets: cross_entropy_composite(logits, targets, self.ignore_index),
    )
