"""Tests for the synthetic datasets and the DataLoader."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    SpiralClassification,
    SyntheticDetectionCrops,
    SyntheticImageClassification,
    SyntheticMaskedLM,
    SyntheticSegmentation,
    default_collate,
)
from repro.distributed import DistributedSampler
from corpus_oracle import LoopMaskedLM


class TestImageClassification:
    def test_shapes_and_dtypes(self):
        ds = SyntheticImageClassification(64, num_classes=5, image_size=12, seed=0)
        image, label = ds[0]
        assert image.shape == (3, 12, 12) and image.dtype == np.float32
        assert 0 <= label < 5
        assert len(ds) == 64

    def test_deterministic_given_seed(self):
        a = SyntheticImageClassification(16, seed=3)
        b = SyntheticImageClassification(16, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageClassification(16, seed=3)
        b = SyntheticImageClassification(16, seed=4)
        assert not np.allclose(a.images, b.images)

    def test_classes_are_separable(self):
        """A nearest-class-prototype classifier must beat chance by a wide margin."""
        ds = SyntheticImageClassification(512, num_classes=4, image_size=12, noise=0.4, seed=1)
        prototypes = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(4)])
        flat = ds.images.reshape(len(ds), -1)
        distance = ((flat[:, None, :] - prototypes.reshape(4, -1)[None]) ** 2).sum(axis=2)
        accuracy = (distance.argmin(axis=1) == ds.labels).mean()
        assert accuracy > 0.8


class TestSpiral:
    def test_balanced_classes(self):
        ds = SpiralClassification(300, num_classes=3, seed=0)
        counts = np.bincount(ds.labels)
        assert counts.min() == counts.max()

    def test_features_bounded(self):
        ds = SpiralClassification(300, seed=0)
        assert np.abs(ds.features).max() < 2.0


class TestSegmentation:
    def test_masks_binary_and_nonempty(self):
        ds = SyntheticSegmentation(32, image_size=24, seed=0)
        assert set(np.unique(ds.masks)).issubset({0.0, 1.0})
        assert ds.masks.mean() > 0.01

    def test_blobs_brighter_than_background(self):
        ds = SyntheticSegmentation(32, image_size=24, seed=1)
        foreground = ds.images[ds.masks.repeat(3, axis=1) > 0.5].mean()
        background = ds.images[ds.masks.repeat(3, axis=1) <= 0.5].mean()
        assert foreground > background + 0.5

    def test_getitem_shapes(self):
        ds = SyntheticSegmentation(8, image_size=16)
        image, mask = ds[3]
        assert image.shape == (3, 16, 16) and mask.shape == (1, 16, 16)


class TestDetectionCrops:
    def test_sample_structure(self):
        ds = SyntheticDetectionCrops(16, num_classes=4, crop_size=14, seed=0)
        sample = ds[0]
        assert sample["image"].shape == (3, 14, 14)
        assert sample["mask"].shape == (14, 14)
        assert sample["box"].shape == (4,)
        assert 0 <= sample["label"] < 4

    def test_boxes_normalised(self):
        ds = SyntheticDetectionCrops(32, seed=1)
        assert np.all(ds.boxes >= 0) and np.all(ds.boxes <= 1)

    def test_mask_matches_box_area_roughly(self):
        ds = SyntheticDetectionCrops(32, crop_size=20, seed=2)
        areas = ds.masks.sum(axis=(1, 2)) / (20 * 20)
        expected = ds.boxes[:, 2] * ds.boxes[:, 3]
        assert np.corrcoef(areas, expected)[0, 1] > 0.8


class TestMaskedLM:
    def test_sample_structure(self):
        ds = SyntheticMaskedLM(16, vocab_size=50, seq_length=20, seed=0)
        sample = ds[0]
        assert sample["input_ids"].shape == (20,)
        assert sample["labels"].shape == (20,)
        assert sample["attention_mask"].shape == (20,)

    def test_labels_only_at_masked_positions(self):
        ds = SyntheticMaskedLM(32, vocab_size=50, seq_length=32, seed=1)
        sample = ds[0]
        masked = sample["labels"] != -100
        assert masked.any()
        # At non-masked positions the input token is unchanged from the source sequence.
        np.testing.assert_array_equal(sample["input_ids"][~masked], ds.sequences[0][~masked])

    def test_mask_token_appears(self):
        ds = SyntheticMaskedLM(64, vocab_size=50, seq_length=32, mask_prob=0.3, seed=2)
        found_mask_token = any((ds[i]["input_ids"] == SyntheticMaskedLM.MASK_TOKEN).any() for i in range(10))
        assert found_mask_token

    def test_transition_structure_learnable(self):
        """Bigram statistics must carry information (non-uniform transitions)."""
        ds = SyntheticMaskedLM(128, vocab_size=30, seq_length=64, num_styles=2, seed=3)
        transitions = np.zeros((30, 30))
        for sequence in ds.sequences:
            for a, b in zip(sequence[:-1], sequence[1:]):
                transitions[a, b] += 1
        row_sums = transitions.sum(axis=1, keepdims=True)
        probs = transitions / np.maximum(row_sums, 1)
        # Peaked rows: the most likely next token has probability well above uniform.
        peaks = probs.max(axis=1)[row_sums.squeeze() > 10]
        assert peaks.mean() > 0.2

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            SyntheticMaskedLM(4, vocab_size=3)

    @pytest.mark.parametrize("seq_length", [0, -1])
    def test_seq_length_below_one_rejected(self, seq_length):
        with pytest.raises(ValueError, match="seq_length"):
            SyntheticMaskedLM(4, vocab_size=10, seq_length=seq_length)

    @pytest.mark.parametrize("num_styles", [0, -2])
    def test_num_styles_below_one_rejected(self, num_styles):
        with pytest.raises(ValueError, match="num_styles"):
            SyntheticMaskedLM(4, vocab_size=10, num_styles=num_styles)

    @pytest.mark.parametrize("mask_prob", [-0.1, 1.5, float("nan")])
    def test_mask_prob_outside_unit_interval_rejected(self, mask_prob):
        with pytest.raises(ValueError, match="mask_prob"):
            SyntheticMaskedLM(4, vocab_size=10, mask_prob=mask_prob)

    @pytest.mark.parametrize("concentration", [0.0, -0.5, float("inf"), float("nan")])
    def test_concentration_not_positive_finite_rejected(self, concentration):
        with pytest.raises(ValueError, match="concentration"):
            SyntheticMaskedLM(4, vocab_size=10, concentration=concentration)

    def test_mask_prob_bounds_accepted(self):
        """0 and 1 are valid: every item still labels at least one position."""
        for mask_prob in (0.0, 1.0):
            labels = SyntheticMaskedLM(4, vocab_size=10, seq_length=6, mask_prob=mask_prob)[0]["labels"]
            assert (labels != -100).sum() == (1 if mask_prob == 0.0 else 6)


class TestCorpusOracle:
    """The one-pass draw equals the per-token ``Generator.choice`` loop bit for bit.

    CI runs this under every Python row, and so against each row's numpy
    release: a numpy whose ``choice`` consumes the stream differently fails here.
    """

    SHAPES = {
        "default": dict(num_samples=512, vocab_size=200, seq_length=32),
        "benchmark": dict(num_samples=640, vocab_size=120, seq_length=24),
        "edge": dict(num_samples=1, vocab_size=4, seq_length=1, num_styles=1),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", [0, 1, 901, 12345])
    def test_corpus_and_items_equal_loop(self, shape, seed):
        kwargs = dict(self.SHAPES[shape], seed=seed)
        drawn, reference = SyntheticMaskedLM(**kwargs), LoopMaskedLM(**kwargs)
        assert drawn.sequences.dtype == reference.sequences.dtype
        assert np.array_equal(drawn.sequences, reference.sequences)
        for index in range(64):
            item, expected = drawn[index % len(drawn)], reference[index % len(drawn)]
            assert item.keys() == expected.keys()
            for key in item:
                assert item[key].dtype == expected[key].dtype
                assert np.array_equal(item[key], expected[key]), (index, key)


class TestDataLoader:
    def test_batching_shapes(self):
        ds = SyntheticImageClassification(50, image_size=8, seed=0)
        loader = DataLoader(ds, batch_size=16)
        images, labels = next(iter(loader))
        assert images.shape == (16, 3, 8, 8)
        assert labels.shape == (16,)

    def test_len_with_and_without_drop_last(self):
        ds = SyntheticImageClassification(50, image_size=8, seed=0)
        assert len(DataLoader(ds, batch_size=16)) == 4
        assert len(DataLoader(ds, batch_size=16, drop_last=True)) == 3

    def test_drop_last_yields_full_batches_only(self):
        ds = SyntheticImageClassification(50, image_size=8, seed=0)
        for images, _ in DataLoader(ds, batch_size=16, drop_last=True):
            assert images.shape[0] == 16

    def test_shuffle_changes_order_between_epochs(self):
        ds = SpiralClassification(64, seed=0)
        loader = DataLoader(ds, batch_size=64, shuffle=True, seed=5)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_dict_collation(self):
        ds = SyntheticMaskedLM(20, vocab_size=50, seq_length=8, seed=0)
        batch = next(iter(DataLoader(ds, batch_size=4)))
        assert batch["input_ids"].shape == (4, 8)
        assert batch["labels"].shape == (4, 8)

    def test_default_collate_arrays(self):
        batch = default_collate([np.zeros(3), np.ones(3)])
        assert batch.shape == (2, 3)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(SpiralClassification(10), batch_size=0)

    def test_with_distributed_sampler_shards_data(self):
        ds = SpiralClassification(64, seed=0)
        loaders = [
            DataLoader(ds, batch_size=8, sampler=DistributedSampler(len(ds), rank=r, world_size=2, shuffle=False))
            for r in range(2)
        ]
        seen = []
        for loader in loaders:
            for _, labels in loader:
                seen.append(labels)
        # The sampler pads to an even per-rank count, so at least every sample is seen.
        assert sum(len(batch) for batch in seen) >= len(ds)
