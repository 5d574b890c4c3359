"""Trainable CPU-scale workloads mirroring the paper's four applications.

Each builder returns a :class:`TrainableWorkload` bundling a model, a data
loader over a synthetic training set, a loss closure, a validation-metric
closure over a held-out set, and the modules that must be excluded from K-FAC
(the BERT embeddings and MLM head, section 5.2).  The convergence benchmarks
train each workload twice — once with its baseline optimizer, once with the
same optimizer plus the KAISA preconditioner — and compare iterations/epochs
to the target metric, reproducing the structure of Figures 1 and 5 and
Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .. import nn, optim
from ..data import (
    DataLoader,
    Subset,
    SpiralClassification,
    SyntheticDetectionCrops,
    SyntheticImageClassification,
    SyntheticMaskedLM,
    SyntheticSegmentation,
)
from ..models import MLP, MaskRCNNHeads, MaskRCNNLoss, UNet, bert_tiny, cifar_resnet20
from ..nn.module import Module
from ..tensor import Tensor, no_grad
from ..training.metrics import (
    classification_accuracy,
    detection_score,
    masked_lm_accuracy,
    segmentation_dice,
)
from .configs import SMALL_WORKLOADS, SmallWorkloadConfig

__all__ = ["TrainableWorkload", "build_workload", "make_optimizer", "WORKLOAD_BUILDERS"]


@dataclass
class TrainableWorkload:
    """A ready-to-train workload: model, data, loss, metric and K-FAC exclusions."""

    name: str
    config: SmallWorkloadConfig
    model: Module
    train_loader: DataLoader
    forward_loss: Callable[[Module, object], Tensor]
    evaluate: Callable[[Module], float]
    kfac_skip_modules: Tuple[Module, ...] = ()


def make_optimizer(name: str, parameters, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
    """Construct the baseline optimizer named in Table 1."""
    lowered = name.lower()
    if lowered == "sgd":
        return optim.SGD(parameters, lr=lr, momentum=momentum, weight_decay=weight_decay)
    if lowered == "adam":
        return optim.Adam(parameters, lr=lr, weight_decay=weight_decay)
    if lowered == "adamw":
        return optim.AdamW(parameters, lr=lr, weight_decay=weight_decay)
    if lowered in ("lamb", "fusedlamb"):
        return optim.LAMB(parameters, lr=lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer {name!r}")


# --------------------------------------------------------------------------
# Classification (Figure 1 / Figure 5a analogue)
# --------------------------------------------------------------------------
def build_classification_workload(
    config: Optional[SmallWorkloadConfig] = None,
    seed: int = 0,
    num_train: int = 768,
    num_val: int = 256,
    image_size: int = 12,
    num_classes: int = 10,
    noise: float = 1.8,
    width_multiplier: float = 0.25,
) -> TrainableWorkload:
    config = config or SMALL_WORKLOADS["cifar_resnet"]
    rng = np.random.default_rng(seed)
    # Train and validation come from one generated dataset so both splits share
    # the same class prototypes (like splitting a real labelled dataset).
    full = SyntheticImageClassification(
        num_train + num_val, num_classes=num_classes, image_size=image_size, noise=noise, seed=seed
    )
    train = Subset(full, range(num_train))
    val_images = full.images[num_train:]
    val_labels = full.labels[num_train:]
    model = cifar_resnet20(num_classes=num_classes, width_multiplier=width_multiplier, rng=rng)
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=seed)
    loss_fn = nn.CrossEntropyLoss()

    def forward_loss(m: Module, batch) -> Tensor:
        images, labels = batch
        return loss_fn(m(Tensor(images)), labels)

    def evaluate(m: Module) -> float:
        with no_grad():
            logits = m(Tensor(val_images)).numpy()
        return classification_accuracy(logits, val_labels)

    return TrainableWorkload(
        name="cifar_resnet",
        config=config,
        model=model,
        train_loader=loader,
        forward_loss=forward_loss,
        evaluate=evaluate,
    )


# --------------------------------------------------------------------------
# Segmentation (Figure 5c analogue)
# --------------------------------------------------------------------------
def build_unet_workload(
    config: Optional[SmallWorkloadConfig] = None,
    seed: int = 0,
    num_train: int = 192,
    num_val: int = 48,
    image_size: int = 24,
    base_width: int = 8,
    depth: int = 2,
) -> TrainableWorkload:
    config = config or SMALL_WORKLOADS["unet"]
    rng = np.random.default_rng(seed)
    train = SyntheticSegmentation(num_train, image_size=image_size, seed=seed)
    val = SyntheticSegmentation(num_val, image_size=image_size, seed=seed + 10_000)
    model = UNet(in_channels=3, out_channels=1, base_width=base_width, depth=depth, rng=rng)
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=seed)
    dice_loss = nn.DiceLoss()
    bce_loss = nn.BCEWithLogitsLoss()

    def forward_loss(m: Module, batch) -> Tensor:
        images, masks = batch
        logits = m(Tensor(images))
        return dice_loss(logits, masks) + bce_loss(logits, masks)

    def evaluate(m: Module) -> float:
        with no_grad():
            logits = m(Tensor(val.images)).numpy()
        return segmentation_dice(logits, val.masks)

    return TrainableWorkload(
        name="unet",
        config=config,
        model=model,
        train_loader=loader,
        forward_loss=forward_loss,
        evaluate=evaluate,
    )


# --------------------------------------------------------------------------
# Detection ROI heads (Figure 5b analogue)
# --------------------------------------------------------------------------
def build_maskrcnn_workload(
    config: Optional[SmallWorkloadConfig] = None,
    seed: int = 0,
    num_train: int = 384,
    num_val: int = 96,
    num_classes: int = 5,
    crop_size: int = 14,
) -> TrainableWorkload:
    config = config or SMALL_WORKLOADS["mask_rcnn"]
    rng = np.random.default_rng(seed)
    train = SyntheticDetectionCrops(num_train, num_classes=num_classes, crop_size=crop_size, seed=seed)
    val = SyntheticDetectionCrops(num_val, num_classes=num_classes, crop_size=crop_size, seed=seed + 10_000)
    model = MaskRCNNHeads(num_classes=num_classes, roi_size=crop_size, feature_channels=16, representation_size=64, mask_layers=2, rng=rng)
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=seed)
    loss_fn = MaskRCNNLoss()

    def forward_loss(m: Module, batch) -> Tensor:
        output = m(Tensor(batch["image"]))
        return loss_fn(output, batch["label"], batch["box"], batch["mask"])

    def evaluate(m: Module) -> float:
        with no_grad():
            output = m(Tensor(val.images))
        return detection_score(output.class_logits.numpy(), val.labels, output.mask_logits.numpy(), val.masks)

    return TrainableWorkload(
        name="mask_rcnn",
        config=config,
        model=model,
        train_loader=loader,
        forward_loss=forward_loss,
        evaluate=evaluate,
    )


# --------------------------------------------------------------------------
# Masked language modelling (Table 3 analogue)
# --------------------------------------------------------------------------
def build_bert_workload(
    config: Optional[SmallWorkloadConfig] = None,
    seed: int = 0,
    num_train: int = 512,
    num_val: int = 128,
    vocab_size: int = 120,
    seq_length: int = 24,
) -> TrainableWorkload:
    if num_train < 1 or num_val < 1:
        raise ValueError(f"num_train and num_val must be at least 1, got {num_train} and {num_val}")
    config = config or SMALL_WORKLOADS["bert"]
    rng = np.random.default_rng(seed)
    # One corpus, split into train/validation so both share the same Markov chains.
    full = SyntheticMaskedLM(num_train + num_val, vocab_size=vocab_size, seq_length=seq_length, seed=seed)
    train = Subset(full, range(num_train))
    model = bert_tiny(vocab_size=vocab_size, rng=rng)
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=seed)
    loss_fn = nn.MaskedLMCrossEntropyLoss()
    val_batches = [full[i] for i in range(num_train, num_train + num_val)]
    val_inputs = np.stack([b["input_ids"] for b in val_batches])
    val_labels = np.stack([b["labels"] for b in val_batches])

    def forward_loss(m: Module, batch) -> Tensor:
        logits = m(batch["input_ids"], attention_mask=batch["attention_mask"])
        return loss_fn(logits, batch["labels"])

    def evaluate(m: Module) -> float:
        with no_grad():
            logits = m(val_inputs).numpy()
        return masked_lm_accuracy(logits, val_labels)

    return TrainableWorkload(
        name="bert",
        config=config,
        model=model,
        train_loader=loader,
        forward_loss=forward_loss,
        evaluate=evaluate,
        kfac_skip_modules=tuple(model.kfac_excluded_modules()),
    )


# --------------------------------------------------------------------------
# MLP on spirals (quickstart / tests)
# --------------------------------------------------------------------------
def build_mlp_workload(
    config: Optional[SmallWorkloadConfig] = None,
    seed: int = 0,
    num_train: int = 768,
    num_val: int = 256,
) -> TrainableWorkload:
    config = config or SMALL_WORKLOADS["mlp"]
    rng = np.random.default_rng(seed)
    train = SpiralClassification(num_train, seed=seed)
    val = SpiralClassification(num_val, seed=seed + 10_000)
    model = MLP(2, [32, 32], train.num_classes, rng=rng)
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=seed)
    loss_fn = nn.CrossEntropyLoss()

    def forward_loss(m: Module, batch) -> Tensor:
        features, labels = batch
        return loss_fn(m(Tensor(features)), labels)

    def evaluate(m: Module) -> float:
        with no_grad():
            logits = m(Tensor(val.features)).numpy()
        return classification_accuracy(logits, val.labels)

    return TrainableWorkload(
        name="mlp",
        config=config,
        model=model,
        train_loader=loader,
        forward_loss=forward_loss,
        evaluate=evaluate,
    )


WORKLOAD_BUILDERS: Dict[str, Callable[..., TrainableWorkload]] = {
    "cifar_resnet": build_classification_workload,
    "unet": build_unet_workload,
    "mask_rcnn": build_maskrcnn_workload,
    "bert": build_bert_workload,
    "mlp": build_mlp_workload,
}


def build_workload(name: str, **kwargs) -> TrainableWorkload:
    """Build a trainable workload by name (see :data:`WORKLOAD_BUILDERS`)."""
    if name not in WORKLOAD_BUILDERS:
        raise ValueError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_BUILDERS)}")
    return WORKLOAD_BUILDERS[name](**kwargs)
