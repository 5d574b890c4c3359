"""Distributed sampling: shard each global batch across ranks."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["DistributedSampler", "shard_batch"]


def shard_batch(batch_size: int, rank: int, world_size: int) -> slice:
    """Contiguous slice of a global batch owned by ``rank``.

    The global batch is split as evenly as possible; earlier ranks receive
    the remainder (matching ``torch.utils.data.distributed.DistributedSampler``
    behaviour of never dropping samples within a batch).
    """
    if world_size < 1 or not 0 <= rank < world_size:
        raise ValueError("invalid rank/world_size")
    base = batch_size // world_size
    remainder = batch_size % world_size
    start = rank * base + min(rank, remainder)
    size = base + (1 if rank < remainder else 0)
    return slice(start, start + size)


class DistributedSampler:
    """Deterministic per-epoch shuffling with per-rank sharding of sample indices."""

    def __init__(self, num_samples: int, rank: int = 0, world_size: int = 1, shuffle: bool = True, seed: int = 0) -> None:
        if world_size < 1 or not 0 <= rank < world_size:
            raise ValueError("invalid rank/world_size")
        self.num_samples = int(num_samples)
        self.rank = rank
        self.world_size = world_size
        self.shuffle = shuffle
        self.seed = seed
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Change the shuffling seed so every epoch uses a different permutation."""
        self.epoch = int(epoch)

    def __len__(self) -> int:
        return (self.num_samples + self.world_size - 1) // self.world_size

    def indices(self) -> np.ndarray:
        order = np.arange(self.num_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self.epoch)
            rng.shuffle(order)
        # Pad so that every rank sees the same number of samples.
        per_rank = len(self)
        total = per_rank * self.world_size
        if total > self.num_samples:
            order = np.concatenate([order, order[: total - self.num_samples]])
        return order[self.rank : total : self.world_size]

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())
