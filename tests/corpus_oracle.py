"""The per-token masked-LM corpus loop that the vectorised draw replaced.

Kept as the test oracle (as ``kernel_oracle.py`` keeps the plain-expression
kernels): :class:`LoopMaskedLM` is :class:`repro.data.SyntheticMaskedLM` as it
was before its tokens were drawn in one pass, one ``Generator.choice`` call
per token and the same BERT masking in ``__getitem__``.
``tests/test_data.py::TestCorpusOracle`` holds the library's corpus and its
first items to it bit for bit, so a numpy release whose ``choice`` consumes
the stream differently, or a change to the mask stream, fails there.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class LoopMaskedLM:
    """Markov-chain token streams drawn token by token, with BERT masking."""

    MASK_TOKEN = 1
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
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.seq_length = seq_length
        self.mask_prob = mask_prob
        regular = vocab_size - self.FIRST_REGULAR_TOKEN
        transitions = rng.dirichlet(np.full(regular, concentration), size=(num_styles, regular))
        sequences = np.zeros((num_samples, seq_length), dtype=np.int64)
        for index in range(num_samples):
            style = rng.integers(0, num_styles)
            token = rng.integers(0, regular)
            for position in range(seq_length):
                sequences[index, position] = token + self.FIRST_REGULAR_TOKEN
                token = rng.choice(regular, p=transitions[style, token])
        self.sequences = sequences
        self._mask_rng = np.random.default_rng(seed + 1)

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
