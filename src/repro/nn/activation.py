"""Activation layers."""

from __future__ import annotations

from ..tensor import Tensor
from .functional import gelu, softmax
from .module import Module

__all__ = ["ReLU", "GELU", "Sigmoid", "Tanh", "Softmax"]


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class GELU(Module):
    """Gaussian error linear unit (tanh approximation), one autograd node per call."""

    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)

    def __repr__(self) -> str:
        return "GELU()"


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:
        return "Tanh()"


class Softmax(Module):
    """Softmax along a fixed axis, one autograd node per call."""

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return softmax(x, axis=self.axis)

    def __repr__(self) -> str:
        return f"Softmax(axis={self.axis})"
