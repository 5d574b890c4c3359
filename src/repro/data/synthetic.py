"""Synthetic datasets standing in for the paper's training corpora.

The paper's datasets (ImageNet-1k, COCO 2014, the LGG brain-MRI set,
Wikipedia + Toronto BookCorpus) cannot be redistributed or downloaded in this
offline environment, so each workload gets a synthetic generator that
produces a *learnable* task with the same input/output structure:

* :class:`SyntheticImageClassification` — images whose class determines a
  spatial pattern plus noise (ResNet-style classification),
* :class:`SyntheticSegmentation` — images containing bright blobs with the
  matching binary masks (U-Net / Dice),
* :class:`SyntheticDetectionCrops` — ROI-sized crops with a class label, a
  box-regression target and a per-class mask (Mask R-CNN ROI heads),
* :class:`SyntheticMaskedLM` — token streams from a class of Markov chains
  with BERT-style random masking (masked-language-model pretraining).

Every dataset is deterministic given its seed, supports ``__len__`` /
``__getitem__`` and works with :class:`repro.data.DataLoader` and
:class:`repro.distributed.DistributedSampler`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = [
    "SyntheticImageClassification",
    "SyntheticSegmentation",
    "SyntheticDetectionCrops",
    "SyntheticMaskedLM",
    "SpiralClassification",
]


class SyntheticImageClassification:
    """Images with class-conditional frequency patterns plus Gaussian noise."""

    def __init__(
        self,
        num_samples: int = 2048,
        num_classes: int = 10,
        image_size: int = 16,
        channels: int = 3,
        noise: float = 0.6,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        yy, xx = np.meshgrid(np.linspace(0, 1, image_size), np.linspace(0, 1, image_size), indexing="ij")
        # One smooth "prototype" image per class.
        prototypes = np.empty((num_classes, channels, image_size, image_size), dtype=np.float32)
        for cls in range(num_classes):
            for ch in range(channels):
                fx, fy = rng.uniform(1, 4, size=2)
                phase = rng.uniform(0, 2 * np.pi)
                prototypes[cls, ch] = np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
        labels = rng.integers(0, num_classes, size=num_samples)
        images = prototypes[labels] + noise * rng.standard_normal(
            (num_samples, channels, image_size, image_size)
        ).astype(np.float32)
        self.images = images.astype(np.float32)
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.int64]:
        return self.images[index], self.labels[index]


class SpiralClassification:
    """Classic two-dimensional interleaved-spirals classification problem."""

    def __init__(self, num_samples: int = 1024, num_classes: int = 3, noise: float = 0.15, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        per_class = num_samples // num_classes
        points = []
        labels = []
        for cls in range(num_classes):
            radius = np.linspace(0.1, 1.0, per_class)
            theta = np.linspace(cls * 2 * np.pi / num_classes, cls * 2 * np.pi / num_classes + 3.5, per_class)
            theta = theta + noise * rng.standard_normal(per_class)
            points.append(np.stack([radius * np.sin(theta), radius * np.cos(theta)], axis=1))
            labels.append(np.full(per_class, cls))
        self.features = np.concatenate(points).astype(np.float32)
        self.labels = np.concatenate(labels).astype(np.int64)
        self.num_classes = num_classes

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.int64]:
        return self.features[index], self.labels[index]


class SyntheticSegmentation:
    """Images containing 1-3 bright elliptical blobs, with binary segmentation masks."""

    def __init__(
        self,
        num_samples: int = 512,
        image_size: int = 32,
        channels: int = 3,
        noise: float = 0.3,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.image_size = image_size
        yy, xx = np.meshgrid(np.arange(image_size), np.arange(image_size), indexing="ij")
        images = noise * rng.standard_normal((num_samples, channels, image_size, image_size)).astype(np.float32)
        masks = np.zeros((num_samples, 1, image_size, image_size), dtype=np.float32)
        for index in range(num_samples):
            for _ in range(rng.integers(1, 4)):
                cy, cx = rng.uniform(0.2, 0.8, size=2) * image_size
                ry, rx = rng.uniform(0.08, 0.22, size=2) * image_size
                blob = (((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2) <= 1.0
                masks[index, 0][blob] = 1.0
                images[index, :, blob] += rng.uniform(1.0, 2.0)
        self.images = images
        self.masks = masks

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.images[index], self.masks[index]


class SyntheticDetectionCrops:
    """ROI crops with a class label, box-regression target and per-instance mask.

    Each crop contains one object whose shape depends on its class; the box
    target is the normalised offset/scale of the object within the crop
    (mimicking ROI-align box-regression targets) and the mask is the object's
    silhouette.
    """

    def __init__(
        self,
        num_samples: int = 512,
        num_classes: int = 5,
        crop_size: int = 14,
        channels: int = 3,
        noise: float = 0.3,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.crop_size = crop_size
        yy, xx = np.meshgrid(np.arange(crop_size), np.arange(crop_size), indexing="ij")
        images = noise * rng.standard_normal((num_samples, channels, crop_size, crop_size)).astype(np.float32)
        labels = rng.integers(0, num_classes, size=num_samples).astype(np.int64)
        boxes = np.zeros((num_samples, 4), dtype=np.float32)
        masks = np.zeros((num_samples, crop_size, crop_size), dtype=np.float32)
        for index in range(num_samples):
            cls = labels[index]
            cy, cx = rng.uniform(0.35, 0.65, size=2) * crop_size
            height = rng.uniform(0.25, 0.45) * crop_size
            width = height * (0.5 + 0.25 * cls)  # aspect ratio encodes the class
            region = (np.abs(yy - cy) <= height / 2) & (np.abs(xx - cx) <= width / 2)
            masks[index][region] = 1.0
            images[index, :, region] += 1.0 + 0.3 * cls
            boxes[index] = [cy / crop_size, cx / crop_size, height / crop_size, width / crop_size]
        self.images = images
        self.labels = labels
        self.boxes = boxes
        self.masks = masks

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Dict[str, np.ndarray]:
        return {
            "image": self.images[index],
            "label": self.labels[index],
            "box": self.boxes[index],
            "mask": self.masks[index],
        }


class SyntheticMaskedLM:
    """Masked-language-model pretraining data from a family of Markov chains.

    Each sequence is generated by one of ``num_styles`` first-order Markov
    chains over the vocabulary, so a model must learn the (style-dependent)
    transition structure to predict masked tokens better than the unigram
    baseline.  Masking follows BERT: ``mask_prob`` of tokens are selected; of
    those 80% are replaced by ``[MASK]``, 10% by a random token and 10% kept.

    Tokens are drawn as ``Generator.choice(p=...)`` draws them, vectorised
    over samples: each sample takes its style, first token and one uniform per
    position (the last unused) from the stream, and the next token counts the
    entries of its row's CDF at or below its uniform.  Every corpus is bit for
    bit the one the earlier per-token ``choice`` loop drew (``tests/corpus_oracle.py``).
    """

    MASK_TOKEN = 1
    PAD_TOKEN = 0
    FIRST_REGULAR_TOKEN = 2

    def __init__(
        self,
        num_samples: int = 512,
        vocab_size: int = 200,
        seq_length: int = 32,
        num_styles: int = 4,
        mask_prob: float = 0.15,
        concentration: float = 0.05,
        seed: int = 0,
    ) -> None:
        if vocab_size <= self.FIRST_REGULAR_TOKEN + 1:
            raise ValueError("vocab_size too small")
        if seq_length < 1:
            raise ValueError(f"seq_length must be at least 1, got {seq_length}")
        if num_styles < 1:
            raise ValueError(f"num_styles must be at least 1, got {num_styles}")
        if not 0.0 <= mask_prob <= 1.0:
            raise ValueError(f"mask_prob must lie in [0, 1], got {mask_prob}")
        if not (np.isfinite(concentration) and concentration > 0):
            raise ValueError(f"concentration must be positive and finite, got {concentration}")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.seq_length = seq_length
        self.mask_prob = mask_prob
        regular = vocab_size - self.FIRST_REGULAR_TOKEN
        # Sparse, peaked transition matrices make the task learnable.
        transitions = rng.dirichlet(np.full(regular, concentration), size=(num_styles, regular))
        cdf = np.cumsum(transitions, axis=-1)
        cdf /= cdf[..., -1:]
        styles, tokens = np.empty((2, num_samples), dtype=np.int64)
        uniforms = np.empty((num_samples, seq_length))
        for index in range(num_samples):
            styles[index], tokens[index] = rng.integers(0, num_styles), rng.integers(0, regular)
            rng.random(seq_length, out=uniforms[index])
        self.sequences = np.empty((num_samples, seq_length), dtype=np.int64)
        for position in range(seq_length):
            self.sequences[:, position] = tokens + self.FIRST_REGULAR_TOKEN
            # choice's cdf.searchsorted(u, side="right"), one row per sample.
            tokens = (cdf[styles, tokens] <= uniforms[:, position, None]).sum(axis=1)
        self._mask_rng = np.random.default_rng(seed + 1)

    def __len__(self) -> int:
        return len(self.sequences)

    def __getitem__(self, index: int) -> Dict[str, np.ndarray]:
        tokens = self.sequences[index].copy()
        labels = np.full_like(tokens, -100)
        selected = self._mask_rng.random(self.seq_length) < self.mask_prob
        if not selected.any():
            selected[self._mask_rng.integers(0, self.seq_length)] = True
        labels[selected] = tokens[selected]
        action = self._mask_rng.random(self.seq_length)
        mask_positions = selected & (action < 0.8)
        random_positions = selected & (action >= 0.8) & (action < 0.9)
        tokens[mask_positions] = self.MASK_TOKEN
        tokens[random_positions] = self._mask_rng.integers(
            self.FIRST_REGULAR_TOKEN, self.vocab_size, size=int(random_positions.sum())
        )
        attention_mask = np.ones(self.seq_length, dtype=np.float32)
        return {"input_ids": tokens, "labels": labels, "attention_mask": attention_mask}
