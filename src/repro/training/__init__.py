"""The training loop (the paper's Listing 1), metrics and convergence bookkeeping."""

from .convergence import CurvePoint, TrainingCurve
from .metrics import (
    classification_accuracy,
    detection_score,
    mask_iou,
    masked_lm_accuracy,
    segmentation_dice,
)
from .trainer import Trainer

__all__ = [
    "Trainer",
    "TrainingCurve",
    "CurvePoint",
    "classification_accuracy",
    "masked_lm_accuracy",
    "segmentation_dice",
    "mask_iou",
    "detection_score",
]
