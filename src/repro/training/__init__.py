"""Training loops, the gradient pipeline (the one gradient-synchronisation seam), metrics and convergence bookkeeping."""

from .convergence import CurvePoint, TrainingCurve
from .metrics import (
    classification_accuracy,
    detection_score,
    mask_iou,
    masked_lm_accuracy,
    segmentation_dice,
)
from .pipeline import GradientPipeline
from .trainer import Trainer

__all__ = [
    "Trainer",
    "GradientPipeline",
    "TrainingCurve",
    "CurvePoint",
    "classification_accuracy",
    "masked_lm_accuracy",
    "segmentation_dice",
    "mask_iou",
    "detection_score",
]
