"""Minimal DataLoader: batching, shuffling and dict/array collation."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Union

import numpy as np

from ..distributed.sampler import DistributedSampler

__all__ = ["DataLoader", "default_collate"]

Batch = Union[np.ndarray, tuple, Dict[str, np.ndarray]]


class Subset:
    """A view over a contiguous or arbitrary index subset of a dataset.

    Used to carve a train/validation split out of a single synthetic dataset so
    that both splits share the same underlying task (class prototypes, Markov
    transition matrices, ...), mirroring how real datasets are split.
    """

    def __init__(self, dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = list(int(i) for i in indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int):
        return self.dataset[self.indices[index]]


def default_collate(samples: Sequence) -> Batch:
    """Stack a list of samples into a batch.

    Supports samples that are arrays/scalars, tuples of arrays, or dicts of
    arrays (the three shapes produced by :mod:`repro.data.synthetic`).
    """
    first = samples[0]
    if isinstance(first, dict):
        return {key: np.stack([np.asarray(sample[key]) for sample in samples]) for key in first}
    if isinstance(first, (tuple, list)):
        return tuple(np.stack([np.asarray(sample[i]) for sample in samples]) for i in range(len(first)))
    return np.stack([np.asarray(sample) for sample in samples])


class DataLoader:
    """Iterate over a dataset in mini-batches.

    Parameters
    ----------
    dataset:
        Any object with ``__len__`` and ``__getitem__``.
    batch_size:
        Samples per batch *on this rank* (the local batch size).
    sampler:
        Optional :class:`DistributedSampler`; when given, ``shuffle`` is
        ignored and the sampler's per-rank shard is used.
    drop_last:
        Drop the final incomplete batch (keeps batch shapes static).
    """

    def __init__(
        self,
        dataset,
        batch_size: int,
        shuffle: bool = False,
        sampler: Optional[DistributedSampler] = None,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.sampler = sampler
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)
        self._epoch = 0

    def _indices(self) -> np.ndarray:
        if self.sampler is not None:
            self.sampler.set_epoch(self._epoch)
            return np.asarray(self.sampler.indices())
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        return order

    def __len__(self) -> int:
        count = len(self.sampler) if self.sampler is not None else len(self.dataset)
        if self.drop_last:
            return count // self.batch_size
        return (count + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        indices = self._indices()
        self._epoch += 1
        for start in range(0, len(indices), self.batch_size):
            chunk = indices[start : start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            yield default_collate([self.dataset[int(i)] for i in chunk])
