"""Experiment configurations and the paper's reference numbers.

``PAPER_BASELINES`` and ``PAPER_HYPERPARAMETERS`` transcribe Tables 1 and 2.
``PAPER_RESULTS`` records the headline numbers from section 5 that the
benchmark harness prints next to the measured values, so EXPERIMENTS.md can
always be regenerated from a single source of truth.

``SMALL_WORKLOADS`` holds the CPU-scale hyperparameters actually used for the
convergence experiments in this reproduction (same schema as Table 2, smaller
batch sizes and update frequencies because the synthetic datasets are small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..kfac.config import KFACConfig

__all__ = [
    "BaselineSpec",
    "HyperparameterSpec",
    "SmallWorkloadConfig",
    "PAPER_BASELINES",
    "PAPER_HYPERPARAMETERS",
    "PAPER_RESULTS",
    "SMALL_WORKLOADS",
]


@dataclass(frozen=True)
class BaselineSpec:
    """Row of Table 1: reference target metric and hardware."""

    app: str
    metric_name: str
    target: float
    gpu: str
    num_gpus: int
    baseline_optimizer: str


@dataclass(frozen=True)
class HyperparameterSpec:
    """Row of Table 2: K-FAC hyperparameters per application."""

    app: str
    global_batch_size: int
    learning_rate: float
    warmup_iterations: int
    inv_update_freq: int  # K_freq
    factor_update_freq: int  # F_freq
    damping: float = 0.003
    grad_worker_frac: float = 1.0


#: Table 1 — baseline performance and hardware summary.
PAPER_BASELINES: Dict[str, BaselineSpec] = {
    "resnet50": BaselineSpec("ResNet-50", "val accuracy", 0.759, "V100/A100", 64, "SGD"),
    "mask_rcnn": BaselineSpec("Mask R-CNN", "bbox mAP", 0.377, "V100", 32, "SGD"),
    "unet": BaselineSpec("U-Net", "val DSC", 0.910, "A100", 4, "ADAM"),
    "bert_large": BaselineSpec("BERT-Large", "SQuAD v1.1 F1", 0.908, "A100", 8, "Fused LAMB"),
}

#: Table 2 — hyperparameters used for each application.
PAPER_HYPERPARAMETERS: Dict[str, HyperparameterSpec] = {
    "resnet50": HyperparameterSpec("ResNet-50", 2048, 0.8, 3130, 500, 50),
    "mask_rcnn": HyperparameterSpec("Mask R-CNN", 64, 8e-2, 800, 500, 50),
    "unet": HyperparameterSpec("U-Net", 64, 4e-4, 500, 200, 20),
    "bert_large": HyperparameterSpec("BERT-Large", 65536, 5e-5, 103, 100, 10),
}

#: Headline paper results used for paper-vs-measured reporting.
PAPER_RESULTS: Dict[str, Dict[str, float]] = {
    "figure1": {"sgd_epoch_fraction": 1.0, "kfac_epoch_fraction": 0.6},  # ~40% fewer epochs
    "figure5_resnet50": {"time_reduction_pct": 24.3, "sgd_epochs": 65, "kfac_epochs": 46},
    "figure5_mask_rcnn": {"time_reduction_pct": 14.9, "sgd_iters": 25640, "kfac_iters": 21000},
    "figure5_unet": {"time_reduction_pct": 25.4, "adam_epochs": 50, "kfac_epochs": 30},
    "table3_bert": {"time_reduction_pct": 36.3, "lamb_iters": 1536, "kaisa_iters": 800},
    "table4_resnet50": {"time_reduction_pct": 32.5},
    "table4_bert": {"time_reduction_pct": 41.6},
    "table5_overhead_ratio": {"min": 1.5, "max": 2.9},
    "figure6_resnet50": {"speedup_pct_frac1_vs_min": 24.4},
    "section44_precondition": {"per_layer_time_reduction_pct": 53.0},
}


@dataclass(frozen=True)
class SmallWorkloadConfig:
    """CPU-scale hyperparameters for the trainable synthetic workloads."""

    name: str
    batch_size: int
    epochs: int
    target_metric: float
    baseline_optimizer: str
    baseline_lr: float
    kfac_lr: float  # the KAISA side's optimizer rate; the Trainer passes it to KFAC.step for the KL clip
    damping: float = 0.003
    factor_update_freq: int = 5
    inv_update_freq: int = 10
    kl_clip: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0
    grad_worker_frac: float = 1.0
    seed: int = 0

    def kfac_config(self, **overrides) -> KFACConfig:
        """The workload's K-FAC hyperparameters as a :class:`KFACConfig`.

        ``overrides`` replace individual fields (e.g. ``grad_worker_frac`` for
        a strategy sweep); the result is re-validated.
        """
        base = KFACConfig(
            damping=self.damping,
            kl_clip=self.kl_clip,
            factor_update_freq=self.factor_update_freq,
            inv_update_freq=self.inv_update_freq,
            grad_worker_frac=self.grad_worker_frac,
        )
        return base.replace(**overrides) if overrides else base


#: CPU-scale analogues of the Table 2 configurations.
SMALL_WORKLOADS: Dict[str, SmallWorkloadConfig] = {
    "cifar_resnet": SmallWorkloadConfig(
        name="cifar_resnet",
        batch_size=64,
        epochs=14,
        target_metric=0.90,
        baseline_optimizer="sgd",
        baseline_lr=0.05,
        kfac_lr=0.05,
        kl_clip=0.01,
        factor_update_freq=5,
        inv_update_freq=10,
    ),
    "unet": SmallWorkloadConfig(
        name="unet",
        batch_size=16,
        epochs=12,
        target_metric=0.97,
        baseline_optimizer="adam",
        baseline_lr=3e-3,
        kfac_lr=3e-3,
        factor_update_freq=4,
        inv_update_freq=8,
    ),
    "mask_rcnn": SmallWorkloadConfig(
        name="mask_rcnn",
        batch_size=32,
        epochs=12,
        target_metric=0.80,
        baseline_optimizer="sgd",
        baseline_lr=0.05,
        kfac_lr=0.02,
        damping=0.01,
        factor_update_freq=4,
        inv_update_freq=8,
    ),
    "bert": SmallWorkloadConfig(
        name="bert",
        batch_size=32,
        epochs=12,
        target_metric=0.11,
        baseline_optimizer="lamb",
        baseline_lr=8e-3,
        kfac_lr=8e-3,
        kl_clip=0.01,
        damping=0.01,
        factor_update_freq=5,
        inv_update_freq=10,
    ),
    "mlp": SmallWorkloadConfig(
        name="mlp",
        batch_size=64,
        epochs=15,
        target_metric=0.95,
        baseline_optimizer="sgd",
        baseline_lr=0.1,
        kfac_lr=0.1,
        factor_update_freq=2,
        inv_update_freq=4,
    ),
}
