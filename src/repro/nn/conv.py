"""2D convolution (one fused autograd node per call) and nearest-neighbour upsampling."""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor
from . import init
from .functional import conv2d, conv_output_size
from .module import Module, Parameter

__all__ = ["Conv2d", "Upsample2d"]


def _pair(value: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


class Conv2d(Module):
    """2D convolution over ``(N, C, H, W)`` inputs.

    Each call is one :func:`~repro.nn.functional.conv2d` node: the input's
    patch matrix is built once, multiplied by the weight in a single GEMM and
    kept on the node, where the backward pass and the K-FAC ``A`` factor
    computation both read it.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        kh, kw = self.kernel_size
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kh, kw), rng=rng))
        if bias:
            bound = 1.0 / math.sqrt(in_channels * kh * kw)
            self.bias: Optional[Parameter] = Parameter(init.uniform((out_channels,), -bound, bound, rng=rng))
        else:
            self.bias = None

    def output_shape(self, height: int, width: int) -> Tuple[int, int]:
        """Spatial output shape for an input of ``height`` x ``width``."""
        kh, kw = self.kernel_size
        return (
            conv_output_size(height, kh, self.stride, self.padding),
            conv_output_size(width, kw, self.stride, self.padding),
        )

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bias={self.bias is not None})"
        )


class Upsample2d(Module):
    """Nearest-neighbour spatial upsampling by an integer factor.

    Used in the U-Net decoder (paired with a convolution) as the substitute
    for transposed convolution; the layer population seen by K-FAC is the
    same set of ``Conv2d`` modules either way.
    """

    def __init__(self, scale_factor: int = 2) -> None:
        super().__init__()
        self.scale_factor = int(scale_factor)

    def forward(self, x: Tensor) -> Tensor:
        s = self.scale_factor
        n, c, h, w = x.shape
        out = x.reshape(n, c, h, 1, w, 1)
        ones = Tensor(np.ones((1, 1, 1, s, 1, s), dtype=x.dtype))
        out = out * ones
        return out.reshape(n, c, h * s, w * s)

    def __repr__(self) -> str:
        return f"Upsample2d(scale_factor={self.scale_factor})"
