"""Validation metrics for the paper's workloads."""

from __future__ import annotations

import numpy as np

from ..nn.loss import dice_coefficient

__all__ = [
    "classification_accuracy",
    "masked_lm_accuracy",
    "segmentation_dice",
    "detection_score",
    "mask_iou",
]


def classification_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy (the ResNet/ImageNet validation metric)."""
    predictions = np.asarray(logits).argmax(axis=-1)
    return float((predictions == np.asarray(labels)).mean())


def masked_lm_accuracy(logits: np.ndarray, labels: np.ndarray, ignore_index: int = -100) -> float:
    """Accuracy over masked token positions (our BERT validation proxy for SQuAD F1)."""
    labels = np.asarray(labels)
    mask = labels != ignore_index
    if not mask.any():
        return 0.0
    predictions = np.asarray(logits).argmax(axis=-1)
    return float((predictions[mask] == labels[mask]).mean())


def segmentation_dice(logits: np.ndarray, masks: np.ndarray, threshold: float = 0.5) -> float:
    """Dice similarity coefficient on sigmoid probabilities (the U-Net metric)."""
    probabilities = 1.0 / (1.0 + np.exp(-np.asarray(logits, dtype=np.float64)))
    return dice_coefficient(probabilities, masks, threshold=threshold)


def mask_iou(mask_logits: np.ndarray, masks: np.ndarray, threshold: float = 0.5) -> float:
    """Mean intersection-over-union of predicted instance masks."""
    prediction = (1.0 / (1.0 + np.exp(-np.asarray(mask_logits, dtype=np.float64)))) >= threshold
    target = np.asarray(masks) >= 0.5
    axes = tuple(range(1, prediction.ndim))
    intersection = np.logical_and(prediction, target).sum(axis=axes)
    union = np.logical_or(prediction, target).sum(axis=axes)
    union = np.maximum(union, 1)
    return float((intersection / union).mean())


def detection_score(class_logits: np.ndarray, labels: np.ndarray, mask_logits: np.ndarray, masks: np.ndarray) -> float:
    """Proxy for COCO mAP on the ROI-head task.

    The paper reports bbox/segm mAP, which requires the full detection
    pipeline; on the synthetic ROI-crop task we report the product-style
    combination of classification accuracy and mask IoU for the ground-truth
    class, which rewards exactly the two behaviours the ROI heads are trained
    for and has the same "higher is better, saturates below 1" character.
    """
    accuracy = classification_accuracy(class_logits, labels)
    labels = np.asarray(labels)
    selected = np.asarray(mask_logits)[np.arange(labels.shape[0]), labels]
    iou = mask_iou(selected, masks)
    return 0.5 * (accuracy + iou)
