"""Paper-scale layer shapes for the memory and iteration-time studies.

Figures 6-8 and Tables 4-5 depend only on the *shapes* of the K-FAC
preconditioned layers (factor dimensions, gradient sizes, parameter counts),
not on actually executing the models.  For the ResNet family we instantiate
the real :mod:`repro.models.resnet` modules at full width and read the shapes
off the modules; for BERT-Large and the Mask R-CNN ROI heads (too large /
too entangled with detection machinery to instantiate here) the shapes are
constructed analytically from the published architectures.

The per-application ``baseline_compute_time`` values are calibrated from the
paper's own reported call rates (section 5.5): ResNet-50 calls ``KFAC.step()``
4-6 times per second on 64 V100s, Mask R-CNN about 3 times per second, and
BERT-Large only every ~120 seconds because of gradient accumulation.  Other
ResNet depths are scaled by their relative FLOP counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kfac.analysis import KFACWorkloadSpec
from ..kfac.config import KFACConfig
from ..kfac.factors import FactorRepr
from ..kfac.strategy import LayerShapeInfo
from ..models import resnet18, resnet50, resnet101, resnet152
from ..nn.conv import Conv2d
from ..nn.embedding import Embedding
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.norm import BatchNorm2d, LayerNorm

__all__ = [
    "collect_layer_shapes",
    "paper_layer_shapes",
    "paper_workload_spec",
    "PAPER_WORKLOAD_NAMES",
]

PAPER_WORKLOAD_NAMES = ("resnet18", "resnet50", "resnet101", "resnet152", "mask_rcnn", "bert_large")


def collect_layer_shapes(
    model: Module,
    skip_modules: Sequence[Module] = (),
    include_structured: bool = False,
) -> List[LayerShapeInfo]:
    """Extract the K-FAC layer shapes from an instantiated model.

    Linear/Conv2d (dense factors) are always collected — the population the
    paper's Tables 4-5 cost.  ``include_structured=True`` additionally covers
    the structured-factor handlers (LayerNorm / affine BatchNorm2d with a
    diagonal G, Embedding with a diagonal A), tagging each
    :class:`LayerShapeInfo` with the same :class:`FactorRepr` the real
    handlers use; the default keeps the paper-table specs byte-identical.
    """
    skip = {id(m) for m in skip_modules}
    shapes: List[LayerShapeInfo] = []
    for name, module in model.named_modules():
        if id(module) in skip:
            continue
        a_repr = g_repr = None
        if isinstance(module, Linear):
            a_dim = module.in_features + (1 if module.bias is not None else 0)
            g_dim = module.out_features
        elif isinstance(module, Conv2d):
            kh, kw = module.kernel_size
            a_dim = module.in_channels * kh * kw + (1 if module.bias is not None else 0)
            g_dim = module.out_channels
        elif include_structured and isinstance(module, (LayerNorm, BatchNorm2d)):
            if isinstance(module, BatchNorm2d) and not module.affine:
                continue
            a_dim = 1 + (1 if getattr(module, "bias", None) is not None else 0)
            g_dim = module.normalized_shape if isinstance(module, LayerNorm) else module.num_features
            g_repr = FactorRepr.diagonal(g_dim)
        elif include_structured and isinstance(module, Embedding):
            a_dim = module.num_embeddings
            g_dim = module.embedding_dim
            a_repr = FactorRepr.diagonal(a_dim)
        else:
            continue
        shapes.append(
            LayerShapeInfo(
                name=name,
                a_dim=a_dim,
                g_dim=g_dim,
                grad_numel=a_dim * g_dim,
                a_repr=a_repr,
                g_repr=g_repr,
            )
        )
    return shapes


def _linear_shape(name: str, in_features: int, out_features: int, bias: bool = True) -> LayerShapeInfo:
    a_dim = in_features + (1 if bias else 0)
    return LayerShapeInfo(name=name, a_dim=a_dim, g_dim=out_features, grad_numel=a_dim * out_features)


def _conv_shape(name: str, in_channels: int, out_channels: int, kernel: int, bias: bool = False) -> LayerShapeInfo:
    a_dim = in_channels * kernel * kernel + (1 if bias else 0)
    return LayerShapeInfo(name=name, a_dim=a_dim, g_dim=out_channels, grad_numel=a_dim * out_channels)


def _bert_large_shapes() -> Tuple[List[LayerShapeInfo], int]:
    """BERT-Large transformer-block linear layers (embeddings / MLM head excluded, section 5.2)."""
    hidden, intermediate, layers, vocab = 1024, 4096, 24, 30522
    shapes: List[LayerShapeInfo] = []
    for i in range(layers):
        for proj in ("query", "key", "value", "attention_output"):
            shapes.append(_linear_shape(f"encoder.{i}.{proj}", hidden, hidden))
        shapes.append(_linear_shape(f"encoder.{i}.intermediate", hidden, intermediate))
        shapes.append(_linear_shape(f"encoder.{i}.output", intermediate, hidden))
    # Total parameter count (including the non-preconditioned embeddings/head)
    # for the gradient-allreduce volume: ~335M parameters.
    per_block = 4 * (hidden * hidden + hidden) + hidden * intermediate + intermediate + intermediate * hidden + hidden
    per_block += 4 * 2 * hidden  # two LayerNorms
    embeddings = vocab * hidden + 512 * hidden + 2 * hidden
    head = hidden * vocab + vocab
    params = layers * per_block + embeddings + head
    return shapes, params


def _mask_rcnn_roi_head_shapes() -> Tuple[List[LayerShapeInfo], int]:
    """Mask R-CNN ROI-head layers preconditioned by K-FAC.

    Following the paper's treatment of BERT's vocabulary-sized layers, the
    first box-head FC (12544 -> 1024) is excluded: its Kronecker factor would
    be 12544 x 12544 (about 630 MB in FP32), which is incompatible with the
    ~100-200 MB K-FAC overhead the paper reports for Mask R-CNN, so the
    reference implementation cannot be decomposing it.  The remaining ROI-head
    population (box FC2 + predictors, four 256-channel mask convolutions and
    the mask predictor) reproduces both the layer count and the overhead
    magnitude.
    """
    num_classes = 81
    shapes = [
        _linear_shape("roi_heads.box_head.fc2", 1024, 1024),
        _linear_shape("roi_heads.box_predictor.cls_score", 1024, num_classes),
        _linear_shape("roi_heads.box_predictor.bbox_pred", 1024, 4 * num_classes),
    ]
    for i in range(4):
        shapes.append(_conv_shape(f"roi_heads.mask_head.fcn{i + 1}", 256, 256, 3, bias=True))
    shapes.append(_conv_shape("roi_heads.mask_predictor", 256, num_classes, 1, bias=True))
    # Whole-model parameter count (backbone + FPN + RPN + heads) for gradient allreduce.
    params = 44_000_000
    return shapes, params


# Per-GPU forward+backward+update compute time (seconds) on the paper's hardware,
# calibrated from the KFAC.step() call rates in section 5.5 and relative model FLOPs.
_BASELINE_COMPUTE_TIME = {
    "resnet18": 0.075,
    "resnet50": 0.170,
    "resnet101": 0.300,
    "resnet152": 0.340,
    "mask_rcnn": 0.300,
    "bert_large": 110.0,  # per optimizer step; gradient accumulation spans ~64 micro-batches
}

_LOCAL_BATCH = {
    "resnet18": 32,
    "resnet50": 32,
    "resnet101": 32,
    "resnet152": 24,
    "mask_rcnn": 2,
    "bert_large": 512,  # effective per-GPU samples per optimizer step (8 x 64 accumulation)
}

# Average rows contributed to the factors per input example (spatial positions
# for convolutional models, sequence length for BERT).
_SAMPLES_PER_INPUT = {
    "resnet18": 200.0,
    "resnet50": 200.0,
    "resnet101": 200.0,
    "resnet152": 200.0,
    "mask_rcnn": 100.0,
    "bert_large": 512.0,
}

_UPDATE_FREQS = {
    "resnet18": (50, 500),
    "resnet50": (50, 500),
    "resnet101": (50, 500),
    "resnet152": (50, 500),
    "mask_rcnn": (50, 500),
    "bert_large": (10, 100),
}

_GRAD_ACCUMULATION = {"bert_large": 64}

_RESNET_BUILDERS = {
    "resnet18": resnet18,
    "resnet50": resnet50,
    "resnet101": resnet101,
    "resnet152": resnet152,
}

_SHAPE_CACHE: Dict[str, Tuple[List[LayerShapeInfo], int]] = {}


def paper_layer_shapes(name: str) -> Tuple[List[LayerShapeInfo], int]:
    """Return (K-FAC layer shapes, total trainable parameter count) for a paper model."""
    if name in _SHAPE_CACHE:
        return _SHAPE_CACHE[name]
    if name in _RESNET_BUILDERS:
        rng = np.random.default_rng(0)
        model = _RESNET_BUILDERS[name](num_classes=1000, width_multiplier=1.0, rng=rng)
        result = (collect_layer_shapes(model), model.num_parameters())
    elif name == "bert_large":
        result = _bert_large_shapes()
    elif name == "mask_rcnn":
        result = _mask_rcnn_roi_head_shapes()
    else:
        raise ValueError(f"unknown paper workload {name!r}; expected one of {PAPER_WORKLOAD_NAMES}")
    _SHAPE_CACHE[name] = result
    return result


def paper_workload_spec(name: str, precision: str = "fp32") -> KFACWorkloadSpec:
    """Build the :class:`KFACWorkloadSpec` used by the Figure 6/7/8 benchmarks."""
    layers, params = paper_layer_shapes(name)
    factor_freq, inv_freq = _UPDATE_FREQS[name]
    return KFACWorkloadSpec(
        name=name,
        layers=layers,
        param_count=params,
        local_batch_size=_LOCAL_BATCH[name],
        baseline_compute_time=_BASELINE_COMPUTE_TIME[name],
        config=KFACConfig(factor_update_freq=factor_freq, inv_update_freq=inv_freq, precision=precision),
        samples_per_input=_SAMPLES_PER_INPUT[name],
        grad_accumulation_steps=_GRAD_ACCUMULATION.get(name, 1),
    )
