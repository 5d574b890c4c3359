"""Dropout regularization."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from .module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout: active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = rng if rng is not None else np.random.default_rng()

    def keep_mask(self, shape, dtype) -> Optional[np.ndarray]:
        """Draw this call's mask (``0`` or ``1/keep`` per element); ``None`` when dropout is inactive."""
        if not self.training or self.p == 0.0:
            return None
        keep = 1.0 - self.p
        return (self._rng.random(shape) < keep).astype(dtype) / keep

    def forward(self, x: Tensor) -> Tensor:
        mask = self.keep_mask(x.shape, x.dtype)
        return x if mask is None else x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
