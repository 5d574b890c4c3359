"""Fully-connected layer."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..tensor import Tensor
from . import init
from .functional import linear
from .module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine transform ``y = x Wᵀ + b``.

    Weight shape is ``(out_features, in_features)`` to match the K-FAC
    formulation where the preconditioned gradient is
    ``G⁻¹ ∇L(W) A⁻¹`` with ``∇L(W)`` of shape ``(out, in)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias: Optional[Parameter] = Parameter(init.uniform((out_features,), -bound, bound, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in_features={self.in_features}, out_features={self.out_features}, bias={self.bias is not None})"
