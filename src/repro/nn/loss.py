"""Loss functions for the paper's workloads.

``CrossEntropyLoss`` and ``MaskedLMCrossEntropyLoss`` are thin wrappers over
the one softmax cross-entropy node, :func:`repro.nn.functional.cross_entropy`;
the others are composites of tensor ops.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from .functional import cross_entropy
from .module import Module

__all__ = [
    "CrossEntropyLoss",
    "MaskedLMCrossEntropyLoss",
    "BCEWithLogitsLoss",
    "MSELoss",
    "DiceLoss",
    "dice_coefficient",
]


class CrossEntropyLoss(Module):
    """Softmax cross entropy over class logits ``(N, C)`` and integer targets ``(N,)``."""

    def __init__(self, label_smoothing: float = 0.0) -> None:
        super().__init__()
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = float(label_smoothing)

    def forward(self, logits: Tensor, targets) -> Tensor:
        return cross_entropy(logits, targets, label_smoothing=self.label_smoothing)


class MaskedLMCrossEntropyLoss(Module):
    """Cross entropy over masked token positions only (BERT pretraining loss).

    ``logits`` has shape ``(N, L, V)``; ``targets`` has shape ``(N, L)`` with
    ``ignore_index`` marking non-masked positions that do not contribute.
    """

    def __init__(self, ignore_index: int = -100) -> None:
        super().__init__()
        self.ignore_index = int(ignore_index)

    def forward(self, logits: Tensor, targets) -> Tensor:
        return cross_entropy(logits, targets, self.ignore_index)


class BCEWithLogitsLoss(Module):
    """Numerically-stable binary cross entropy on logits."""

    def forward(self, logits: Tensor, targets) -> Tensor:
        targets_t = targets if isinstance(targets, Tensor) else Tensor(np.asarray(targets, dtype=logits.dtype))
        # log(1 + exp(-|x|)) + max(x, 0) - x*t  (stable formulation)
        abs_neg = -(logits * (2.0 * (logits.data > 0) - 1.0))
        log_term = (1.0 + abs_neg.exp()).log()
        max_term = logits * (logits.data > 0).astype(logits.dtype)
        return (log_term + max_term - logits * targets_t).mean()


class MSELoss(Module):
    """Mean squared error."""

    def forward(self, prediction: Tensor, target) -> Tensor:
        target_t = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=prediction.dtype))
        diff = prediction - target_t
        return (diff * diff).mean()


class DiceLoss(Module):
    """Soft Dice loss on sigmoid probabilities (U-Net segmentation objective)."""

    def __init__(self, smooth: float = 1.0) -> None:
        super().__init__()
        self.smooth = float(smooth)

    def forward(self, logits: Tensor, targets) -> Tensor:
        targets_t = targets if isinstance(targets, Tensor) else Tensor(np.asarray(targets, dtype=logits.dtype))
        probs = logits.sigmoid()
        dims = tuple(range(1, len(logits.shape)))
        intersection = (probs * targets_t).sum(axis=dims)
        denominator = probs.sum(axis=dims) + targets_t.sum(axis=dims)
        dice = (2.0 * intersection + self.smooth) / (denominator + self.smooth)
        return 1.0 - dice.mean()


def dice_coefficient(probabilities: np.ndarray, targets: np.ndarray, threshold: float = 0.5, smooth: float = 1.0) -> float:
    """Dice similarity coefficient metric (paper's U-Net validation metric)."""
    prediction = (np.asarray(probabilities) >= threshold).astype(np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    axes = tuple(range(1, prediction.ndim))
    intersection = (prediction * targets).sum(axis=axes)
    denominator = prediction.sum(axis=axes) + targets.sum(axis=axes)
    dice = (2.0 * intersection + smooth) / (denominator + smooth)
    return float(dice.mean())
