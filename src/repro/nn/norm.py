"""Normalization layers."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from .functional import batch_norm, batch_normalize, layer_norm
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "LayerNorm"]


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of ``(N, C, H, W)``."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1, affine: bool = True) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            x_hat, inv_std, mean, var = batch_normalize(x.data, self.eps)
            # Running statistics are bookkeeping, not part of the graph.
            m = self.momentum
            for name, batch_stat in (("running_mean", mean), ("running_var", var)):
                updated = (1 - m) * self._buffers[name] + m * batch_stat.reshape(-1).astype(np.float32)
                self._buffers[name] = updated
                object.__setattr__(self, name, updated)
        else:
            mean = self._buffers["running_mean"].reshape(1, -1, 1, 1).astype(x.dtype)
            var = self._buffers["running_var"].reshape(1, -1, 1, 1).astype(x.dtype)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x.data - mean) * inv_std
        weight, bias = (self.weight, self.bias) if self.affine else (None, None)
        return batch_norm(x, weight, bias, x_hat, inv_std, batch_stats=self.training)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps}, momentum={self.momentum})"


class LayerNorm(Module):
    """Layer normalization over the last dimension (transformer style)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = int(normalized_shape)
        self.eps = eps
        self.weight = Parameter(np.ones(self.normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(self.normalized_shape, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias, self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape}, eps={self.eps})"
