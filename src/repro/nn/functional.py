"""Functional building blocks: the fused layer nodes, log-softmax, one-hot.

``Conv2d``, ``BatchNorm2d``, ``Linear``, ``LayerNorm``, ``GELU``, softmax, the
attention core and the masked-LM loss each run as a single autograd node
(:class:`Conv2dFunction`, :class:`BatchNorm2dFunction`, :class:`LinearFunction`,
:class:`LayerNormFunction`, :class:`GeluFunction`, :class:`SoftmaxFunction`,
:class:`AttentionFunction`, :class:`MaskedLMLossFunction`) whose backward is
written out by hand, ``needs_input_grad``-aware.  A layer node keeps the one
buffer the layer's K-FAC statistics are the second moment of -- the patch
matrix, the flattened activation, ``x_hat`` -- so the handlers in
:mod:`repro.kfac.layers` read ``output._ctx`` instead of rebuilding it; the
buffer dies with the graph.  ``log_softmax`` (under ``CrossEntropyLoss``) is
still a composite of tensor ops.

Patch extraction has one implementation (:func:`_extract_patches` and its
adjoint :func:`_fold_patches`) that works on a *slab* ``(A, H, W, B)`` -- the
spatial axes in the middle, anything before and after them.  The two callers
only differ in how they view their data as a slab:

* the public ``im2col`` / ``col2im`` / ``unfold`` keep their ``(N, C, H, W)
  -> (N, C*kh*kw, out_h*out_w)`` contract (pooling and the tests use it):
  ``A = N*C``, ``B = 1``;
* the fused :class:`Conv2dFunction` node works channel-major with the batch
  innermost, ``A = C``, ``B = N``, so every one of the ``kh*kw`` copies moves
  runs of ``out_w*N`` contiguous floats and the whole layer is one GEMM
  ``(out_c, C*kh*kw) @ (C*kh*kw, out_h*out_w*N)``.

Public tensors are ``NCHW`` throughout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor
from ..tensor.tensor import Function

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "unfold",
    "conv_patch_matrix",
    "conv2d",
    "batch_normalize",
    "batch_norm",
    "linear",
    "layer_normalize",
    "layer_norm",
    "softmax",
    "scaled_dot_product_attention",
    "log_softmax",
    "gelu",
    "masked_lm_loss",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


# --------------------------------------------------------------------------
# The slab kernel: one patch extraction, one fold
# --------------------------------------------------------------------------
def _padded_slab(slab: np.ndarray, padding: int) -> np.ndarray:
    """An ``(A, H, W, B)`` view as a contiguous array with ``padding`` zeros around H and W."""
    if padding == 0:
        return np.ascontiguousarray(slab)
    a, h, w, b = slab.shape
    padded = np.zeros((a, h + 2 * padding, w + 2 * padding, b), dtype=slab.dtype)
    padded[:, padding : padding + h, padding : padding + w] = slab
    return padded


def _windows(kh: int, kw: int, out_h: int, out_w: int, stride: int):
    """Per kernel offset ``(i, j)``: the padded-slab rows and columns every output location reads there."""
    for i in range(kh):
        rows = slice(i, i + stride * out_h, stride)
        for j in range(kw):
            yield i, j, rows, slice(j, j + stride * out_w, stride)


def _extract_patches(padded: np.ndarray, kernel: Tuple[int, int], stride: int) -> np.ndarray:
    """Sliding patches of a padded slab: ``(A, Hp, Wp, B) -> (A, kh, kw, out_h, out_w, B)``."""
    a, hp, wp, b = padded.shape
    kh, kw = kernel
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    patches = np.empty((a, kh, kw, out_h, out_w, b), dtype=padded.dtype)
    for i, j, rows, cols in _windows(kh, kw, out_h, out_w, stride):
        patches[:, i, j] = padded[:, rows, cols]
    return patches


def _fold_patches(patches: np.ndarray, height: int, width: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of pad + extract: scatter-add ``(A, kh, kw, out_h, out_w, B)`` into ``(A, H, W, B)``."""
    a, kh, kw, out_h, out_w, b = patches.shape
    padded = np.zeros((a, height + 2 * padding, width + 2 * padding, b), dtype=patches.dtype)
    for i, j, rows, cols in _windows(kh, kw, out_h, out_w, stride):
        padded[:, rows, cols] += patches[:, i, j]
    return padded[:, padding : padding + height, padding : padding + width]


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Extract sliding convolution patches.

    Parameters
    ----------
    x:
        Input images ``(N, C, H, W)``.
    kernel:
        Kernel height/width ``(kh, kw)``.

    Returns
    -------
    cols:
        Array of shape ``(N, C*kh*kw, out_h*out_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    patches = _extract_patches(_padded_slab(x.reshape(n * c, h, w, 1), padding), kernel, stride)
    out_h, out_w = patches.shape[3:5]
    return patches.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patches back into an image."""
    n, c, h, w = x_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    patches = cols.reshape(n * c, kh, kw, out_h, out_w, 1)
    return _fold_patches(patches, h, w, stride, padding).reshape(n, c, h, w)


class Unfold(Function):
    """Differentiable im2col: ``(N,C,H,W) -> (N, C*kh*kw, out_h*out_w)``."""

    def forward(self, x, kernel, stride, padding):
        cols, out_h, out_w = im2col(x, kernel, stride, padding)
        self.save_for_backward(x.shape, kernel, stride, padding)
        return cols

    def backward(self, grad):
        x_shape, kernel, stride, padding = self.saved
        return (col2im(grad, x_shape, kernel, stride, padding),)


def unfold(x: Tensor, kernel: Tuple[int, int], stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable patch extraction on a :class:`Tensor`."""
    return Unfold.apply(x, kernel=tuple(kernel), stride=int(stride), padding=int(padding))


# --------------------------------------------------------------------------
# Fused convolution
# --------------------------------------------------------------------------
def conv_patch_matrix(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Patch matrix of a convolution input: ``(N, C, H, W) -> (C*kh*kw, out_h*out_w*N)``.

    Row ``(c, i, j)`` holds input channel ``c`` at kernel offset ``(i, j)``;
    column ``(oh, ow, n)`` is one output location of one sample (batch
    innermost).  This is the matrix :class:`Conv2dFunction` multiplies the
    weight with and the K-FAC ``A`` factor is the second moment of.
    """
    kh, kw = kernel
    patches = _extract_patches(_padded_slab(x.transpose(1, 2, 3, 0), padding), kernel, stride)
    return patches.reshape(x.shape[1] * kh * kw, -1)


class Conv2dFunction(Function):
    """A whole ``Conv2d`` call as one autograd node: one GEMM forward, two backward.

    ``cols`` (the patch matrix, see :func:`conv_patch_matrix`) is built once
    in ``forward`` and kept on the node for ``backward`` and for whoever
    observes the call through a forward hook (``output._ctx.cols``).
    """

    def forward(self, x, weight, bias=None, *, stride, padding):
        n, _, h, w = x.shape
        out_c, _, kh, kw = weight.shape
        self.cols = conv_patch_matrix(x, (kh, kw), stride, padding)
        out = weight.reshape(out_c, -1) @ self.cols
        if bias is not None:
            out += bias[:, None]
        out_h = conv_output_size(h, kh, stride, padding)
        out_w = conv_output_size(w, kw, stride, padding)
        self.save_for_backward(weight, x.shape, stride, padding)
        return np.ascontiguousarray(out.reshape(out_c, out_h, out_w, n).transpose(3, 0, 1, 2))

    def backward(self, grad):
        weight, (n, c, h, w), stride, padding = self.saved
        out_c, _, kh, kw = weight.shape
        out_h, out_w = grad.shape[2:]
        needs_x, needs_weight = self.needs_input_grad[:2]
        grad2 = np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).reshape(out_c, -1)
        grad_x = grad_weight = None
        if needs_weight:
            # grad2 @ colsᵀ, taken as (cols @ grad2ᵀ)ᵀ: BLAS is ~2x faster with the long axis leading.
            grad_weight = (self.cols @ grad2.T).T.reshape(weight.shape)
        if needs_x:
            grad_patches = (weight.reshape(out_c, -1).T @ grad2).reshape(c, kh, kw, out_h, out_w, n)
            grad_x = np.ascontiguousarray(_fold_patches(grad_patches, h, w, stride, padding).transpose(3, 0, 1, 2))
        if len(self.parents) == 2:
            return grad_x, grad_weight
        return grad_x, grad_weight, (grad2.sum(axis=1) if self.needs_input_grad[2] else None)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution of ``(N, C, H, W)`` by ``(out_c, C, kh, kw)`` as a single autograd node."""
    return Conv2dFunction.apply(x, weight, bias, stride=int(stride), padding=int(padding))


# --------------------------------------------------------------------------
# Fused batch normalization
# --------------------------------------------------------------------------
_CHANNEL_AXES = (0, 2, 3)


def batch_normalize(x: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalize ``(N, C, H, W)`` per channel with its own batch statistics.

    Returns ``(x_hat, inv_std, mean, var)``; the statistics are ``(1, C, 1, 1)``
    and ``var`` is the biased variance.
    """
    mean = x.mean(axis=_CHANNEL_AXES, keepdims=True)
    x_hat = x - mean
    var = np.mean(x_hat * x_hat, axis=_CHANNEL_AXES, keepdims=True)
    std = np.sqrt(var + eps)
    x_hat /= std
    inv_std = 1.0 / std
    return x_hat, inv_std, mean, var


class BatchNorm2dFunction(Function):
    """The affine half of ``BatchNorm2d`` plus the closed-form backward of the whole layer.

    The module normalizes (it also needs the batch statistics for its running
    averages) and hands ``x_hat`` / ``inv_std`` over; ``batch_stats`` says
    whether they were computed from ``x`` itself (training) or from constants
    (running statistics), which decides the input gradient.  ``x_hat`` stays
    on the node for observers (``output._ctx.x_hat``).
    """

    def forward(self, x, weight=None, bias=None, *, x_hat, inv_std, batch_stats):
        self.x_hat = x_hat
        self.save_for_backward(weight, inv_std, batch_stats)
        if weight is None:
            return x_hat
        out = x_hat * weight.reshape(1, -1, 1, 1)
        out += bias.reshape(1, -1, 1, 1)
        return out

    def backward(self, grad):
        weight, inv_std, batch_stats = self.saved
        x_hat = self.x_hat
        needs_x = self.needs_input_grad[0]
        grad_weight = grad_bias = None
        if weight is not None or (needs_x and batch_stats):
            grad_bias = np.einsum("nchw->c", grad)
            grad_weight = np.einsum("nchw,nchw->c", grad, x_hat)
        grad_x = None
        if needs_x:
            scale = inv_std if weight is None else inv_std * weight.reshape(1, -1, 1, 1)
            if batch_stats:
                count = grad.size // grad.shape[1]
                grad_x = x_hat * (grad_weight.reshape(1, -1, 1, 1) / -count)
                grad_x -= grad_bias.reshape(1, -1, 1, 1) / count
                grad_x += grad
                grad_x *= scale
            else:
                grad_x = grad * scale
        if weight is None:
            return (grad_x,)
        return grad_x, grad_weight, grad_bias


def batch_norm(
    x: Tensor,
    weight: Optional[Tensor],
    bias: Optional[Tensor],
    x_hat: np.ndarray,
    inv_std: np.ndarray,
    batch_stats: bool,
) -> Tensor:
    """Affine transform of an already normalized ``x`` as one node (see :class:`BatchNorm2dFunction`)."""
    return BatchNorm2dFunction.apply(x, weight, bias, x_hat=x_hat, inv_std=inv_std, batch_stats=batch_stats)


# --------------------------------------------------------------------------
# Fused linear layer
# --------------------------------------------------------------------------
def _add_bias(out: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``out + bias`` along the last axis: in place unless the sum promotes to a wider dtype."""
    if np.result_type(out, bias) != out.dtype:
        return out + bias
    out += bias
    return out


class LinearFunction(Function):
    """A whole ``Linear`` call as one autograd node: one GEMM forward, two backward.

    The leading axes of ``x`` are flattened, so an ``(N, L, in)`` activation is
    one ``(N*L, in) @ (in, out)`` product instead of ``N`` small ones and the
    weight gradient is one GEMM instead of an ``(N, in, out)`` stack summed
    afterwards.  ``x2`` (the flattened activation; a view when ``x`` is
    contiguous) stays on the node for ``backward`` and for whoever observes
    the call through a forward hook (``output._ctx.x2``).
    """

    def forward(self, x, weight, bias=None):
        self.x2 = x.reshape(-1, x.shape[-1])
        out = self.x2 @ weight.T
        if bias is not None:
            out = _add_bias(out, bias)
        self.save_for_backward(weight, x.shape)
        return out.reshape(*x.shape[:-1], weight.shape[0])

    def backward(self, grad):
        weight, x_shape = self.saved
        needs_x, needs_weight = self.needs_input_grad[:2]
        grad2 = grad.reshape(-1, weight.shape[0])
        grad_x = (grad2 @ weight).reshape(x_shape) if needs_x else None
        grad_weight = grad2.T @ self.x2 if needs_weight else None
        if len(self.parents) == 2:
            return grad_x, grad_weight
        return grad_x, grad_weight, (grad2.sum(axis=0) if self.needs_input_grad[2] else None)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weightᵀ + bias`` over the last axis of ``x`` as a single autograd node."""
    return LinearFunction.apply(x, weight, bias)


# --------------------------------------------------------------------------
# Fused layer normalization
# --------------------------------------------------------------------------
def layer_normalize(x: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize over the last axis with the biased variance; returns ``(x_hat, inv_std)``."""
    x_hat = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.mean(x_hat * x_hat, axis=-1, keepdims=True) + eps)
    x_hat /= std
    return x_hat, 1.0 / std


class LayerNormFunction(Function):
    """A whole ``LayerNorm`` call as one autograd node with the closed-form backward.

    ``x_hat`` and ``inv_std`` are computed once in ``forward`` and kept on the
    node for ``backward`` and for observers (``output._ctx.x_hat``).
    """

    def forward(self, x, weight, bias, *, eps):
        self.x_hat, self.inv_std = layer_normalize(x, eps)
        self.save_for_backward(weight)
        return _add_bias(self.x_hat * weight, bias)

    def backward(self, grad):
        (weight,) = self.saved
        features = weight.shape[0]
        needs_x, needs_weight, needs_bias = self.needs_input_grad
        grad2 = grad.reshape(-1, features)
        x_hat2 = self.x_hat.reshape(-1, features)
        grad_x = None
        if needs_x:
            # d x_hat, minus its mean and its projection on x_hat over the normalized axis.
            grad_hat = grad2 * weight
            projection = np.einsum("nf,nf->n", grad_hat, x_hat2)[:, None] / -features
            grad_x = x_hat2 * projection
            grad_x -= grad_hat.mean(axis=-1, keepdims=True)
            grad_x += grad_hat
            grad_x *= self.inv_std.reshape(-1, 1)
            grad_x = grad_x.reshape(grad.shape)
        grad_weight = np.einsum("nf,nf->f", grad2, x_hat2) if needs_weight else None
        return grad_x, grad_weight, (grad2.sum(axis=0) if needs_bias else None)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer normalization over the last axis plus scale and shift as a single autograd node."""
    return LayerNormFunction.apply(x, weight, bias, eps=float(eps))


# --------------------------------------------------------------------------
# Softmax and fused attention
# --------------------------------------------------------------------------
def _softmax(scores: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable softmax along ``axis``; ``out=scores`` overwrites the input."""
    out = np.subtract(scores, scores.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_backward(
    grad: np.ndarray, weights: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Gradient of the softmax input, ``w * (g - sum(g * w))``; ``out=grad`` overwrites the gradient."""
    out = np.subtract(grad, (grad * weights).sum(axis=axis, keepdims=True), out=out)
    out *= weights
    return out


class SoftmaxFunction(Function):
    """Softmax along one axis as a single autograd node (on the kernel the attention node runs)."""

    def forward(self, x, *, axis):
        out = _softmax(x, axis)
        self.save_for_backward(out, axis)
        return out

    def backward(self, grad):
        out, axis = self.saved
        return (_softmax_backward(grad, out, axis),)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` as a single autograd node."""
    return SoftmaxFunction.apply(x, axis=axis)


class AttentionFunction(Function):
    """The core of multi-head attention over ``(N, H, L, d)`` heads as one autograd node.

    ``softmax(q kᵀ * scale + bias) [* dropout_mask] @ v``: two batched GEMMs
    with the scale, the additive padding bias and the softmax applied in place
    on the one ``(N, H, L, L)`` score buffer between them.  The softmax weights
    stay on the node for ``backward``, which is three elementwise passes over
    that shape and four batched GEMMs, each skipped when its parent is dead.
    """

    def forward(self, q, k, v, bias=None, *, scale, dropout_mask=None):
        weights = q @ np.swapaxes(k, -1, -2)
        weights *= scale
        if bias is not None:
            weights += bias
        _softmax(weights, out=weights)
        self.save_for_backward(q, k, v, weights, scale, dropout_mask)
        return (weights if dropout_mask is None else weights * dropout_mask) @ v

    def backward(self, grad):
        q, k, v, weights, scale, dropout_mask = self.saved
        needs_q, needs_k, needs_v = self.needs_input_grad
        grad_q = grad_k = grad_v = None
        if needs_v:
            dropped = weights if dropout_mask is None else weights * dropout_mask
            grad_v = np.swapaxes(dropped, -1, -2) @ grad
        if needs_q or needs_k:
            grad_scores = grad @ np.swapaxes(v, -1, -2)
            if dropout_mask is not None:
                grad_scores *= dropout_mask
            _softmax_backward(grad_scores, weights, out=grad_scores)
            grad_scores *= scale
            if needs_q:
                grad_q = grad_scores @ k
            if needs_k:
                grad_k = np.swapaxes(grad_scores, -1, -2) @ q
        return grad_q, grad_k, grad_v


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Optional[np.ndarray],
    scale: float,
    dropout_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """``softmax(q kᵀ * scale + bias) @ v`` over ``(N, H, L, d)`` heads as a single autograd node.

    ``bias`` is a constant added to the scores (``-1e4`` at padded keys,
    broadcast over heads and queries) and ``dropout_mask`` a constant keep-mask
    (``0`` or ``1/keep``) multiplied into the softmax weights; either may be
    ``None``.
    """
    return AttentionFunction.apply(q, k, v, bias, scale=float(scale), dropout_mask=dropout_mask)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# --------------------------------------------------------------------------
# Fused GELU
# --------------------------------------------------------------------------
_GELU_CONST = float(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = 0.044715


class GeluFunction(Function):
    """GELU (tanh approximation) as one autograd node: ``0.5 x (1 + tanh(c (x + a x^3)))``.

    ``x`` and ``t = tanh(inner)`` are kept; the backward is the closed form
    ``0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)``, evaluated in two
    temporaries of the activation's shape.
    """

    def forward(self, x):
        inner = np.multiply(x, x, out=np.empty_like(x))
        inner *= _GELU_CUBIC
        inner += 1.0
        inner *= x
        inner *= _GELU_CONST
        tanh = np.tanh(inner, out=inner)
        self.save_for_backward(x, tanh)
        out = tanh + 1.0
        out *= x
        out *= 0.5
        return out

    def backward(self, grad):
        x, tanh = self.saved
        slope = np.multiply(x, x, out=np.empty_like(x))
        slope *= 3.0 * _GELU_CUBIC * _GELU_CONST
        slope += _GELU_CONST  # d inner / dx
        sech2 = np.multiply(tanh, tanh, out=np.empty_like(x))
        np.subtract(1.0, sech2, out=sech2)
        slope *= sech2
        slope *= x
        slope += tanh
        slope += 1.0
        slope *= 0.5
        slope *= grad
        return (slope,)


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation, as used in BERT) as a single autograd node."""
    return GeluFunction.apply(x)


# --------------------------------------------------------------------------
# Fused masked-LM loss
# --------------------------------------------------------------------------
class MaskedLMLossFunction(Function):
    """Mean cross entropy over the positions whose target is not ``ignore_index``, as one node.

    Gathers the valid rows of the ``(N, L, V)`` logits, takes their
    log-softmax and the mean negative log-likelihood of the targets; the
    rows' softmax stays on the node, so ``backward`` writes ``(softmax -
    onehot) / n`` into the valid rows of a zero gradient.  With every position
    ignored the loss is zero and so is its gradient.
    """

    def forward(self, logits, targets, *, ignore_index):
        flat_targets = targets.reshape(-1)
        valid = np.flatnonzero(flat_targets != ignore_index)
        picked = (np.arange(valid.size), flat_targets[valid])
        probs = logits.reshape(-1, logits.shape[-1])[valid]
        self.save_for_backward(logits.shape, valid, picked, probs)
        if valid.size == 0:
            return np.zeros((), dtype=logits.dtype)
        probs -= probs.max(axis=-1, keepdims=True)
        target_logits = probs[picked]
        np.exp(probs, out=probs)
        normalizer = probs.sum(axis=-1, keepdims=True)
        probs /= normalizer
        return -(target_logits - np.log(normalizer[:, 0])).mean()

    def backward(self, grad):
        shape, valid, picked, probs = self.saved
        grad_logits = np.zeros(shape, dtype=probs.dtype)
        if valid.size:
            rows = probs * (grad / valid.size)
            rows[picked] -= grad / valid.size
            grad_logits.reshape(-1, shape[-1])[valid] = rows
        return (grad_logits,)


def masked_lm_loss(logits: Tensor, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
    """Masked-LM cross entropy of ``(N, L, V)`` logits against ``(N, L)`` integer targets as a single node."""
    targets = np.asarray(targets, dtype=np.int64)
    return MaskedLMLossFunction.apply(logits, targets, ignore_index=int(ignore_index))


def one_hot(indices: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """One-hot encode an integer array into ``(*indices.shape, num_classes)``."""
    indices = np.asarray(indices)
    out = np.zeros(indices.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(out, indices[..., None].astype(np.int64), 1.0, axis=-1)
    return out
