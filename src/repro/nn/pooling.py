"""Pooling layers."""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..tensor import Tensor
from ..tensor.tensor import Function
from .functional import _extract_patches, _fold_patches, _padded_slab
from .module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


def _pair(value: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _window_patches(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int, fill: float) -> np.ndarray:
    """The pooling windows of ``(N, C, H, W)`` ``x`` as ``(C, kh*kw, out_h, out_w, N)``, padded with ``fill``.

    Read from the channel-major ``(C, H, W, N)`` slab, as :class:`~repro.nn.functional.Conv2dFunction`
    reads its input: a conv output is that slab already, so nothing is copied to ``NCHW``.
    """
    patches = _extract_patches(_padded_slab(x.transpose(1, 2, 3, 0), padding, fill), kernel, stride)
    c, kh, kw, out_h, out_w, n = patches.shape
    return patches.reshape(c, kh * kw, out_h, out_w, n)


def _fold_windows(grad_patches: np.ndarray, x_shape, kernel, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`_window_patches`: the ``(N, C, H, W)`` view of a C-contiguous ``(C, H, W, N)`` gradient."""
    _, c, h, w = x_shape
    grad_patches = grad_patches.reshape(c, *kernel, *grad_patches.shape[2:])
    return np.ascontiguousarray(_fold_patches(grad_patches, h, w, stride, padding)).transpose(3, 0, 1, 2)


class _MaxPoolFn(Function):
    """Max pooling; the padding is ``-inf``, so a border window's maximum is one of its inputs."""

    def forward(self, x, kernel, stride, padding):
        patches = _window_patches(x, kernel, stride, padding, -np.inf)
        argmax = patches.argmax(axis=1)[:, None]
        self.save_for_backward(x.shape, kernel, stride, padding, argmax, patches.shape)
        return np.take_along_axis(patches, argmax, axis=1)[:, 0].transpose(3, 0, 1, 2)

    def backward(self, grad):
        x_shape, kernel, stride, padding, argmax, patches_shape = self.saved
        grad_patches = np.zeros(patches_shape, dtype=grad.dtype)
        np.put_along_axis(grad_patches, argmax, grad.transpose(1, 2, 3, 0)[:, None], axis=1)
        return (_fold_windows(grad_patches, x_shape, kernel, stride, padding),)


class _AvgPoolFn(Function):
    """Average pooling; the zero padding counts in every window's mean (PyTorch's ``count_include_pad=True``)."""

    def forward(self, x, kernel, stride, padding):
        patches = _window_patches(x, kernel, stride, padding, 0.0)
        self.save_for_backward(x.shape, kernel, stride, padding, patches.shape)
        return patches.mean(axis=1).transpose(3, 0, 1, 2)

    def backward(self, grad):
        x_shape, kernel, stride, padding, patches_shape = self.saved
        grad_window = grad.transpose(1, 2, 3, 0)[:, None] / patches_shape[1]
        return (_fold_windows(np.broadcast_to(grad_window, patches_shape), x_shape, kernel, stride, padding),)


class MaxPool2d(Module):
    """Max pooling over ``(N, C, H, W)`` inputs."""

    def __init__(self, kernel_size: Union[int, Tuple[int, int]], stride: int = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size[0]
        self.padding = int(padding)

    def forward(self, x: Tensor) -> Tensor:
        return _MaxPoolFn.apply(x, kernel=self.kernel_size, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"


class AvgPool2d(Module):
    """Average pooling over ``(N, C, H, W)`` inputs."""

    def __init__(self, kernel_size: Union[int, Tuple[int, int]], stride: int = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size[0]
        self.padding = int(padding)

    def forward(self, x: Tensor) -> Tensor:
        return _AvgPoolFn.apply(x, kernel=self.kernel_size, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"


class GlobalAvgPool2d(Module):
    """Adaptive average pooling to a ``1x1`` spatial output, flattened to ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"
