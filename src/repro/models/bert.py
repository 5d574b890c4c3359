"""BERT-style masked-language-model transformer (Devlin et al. 2018).

The paper pretrains BERT-Large (24 layers, hidden 1024) and applies K-FAC to
every ``Linear`` layer inside the transformer blocks while *excluding* the
token embedding and the vocabulary prediction head (their Kronecker factor
would be ``vocab_size x vocab_size``, section 5.2).  :class:`BertModel` here
follows the same block structure with configurable dimensions; ``bert_large``
builds the paper's exact layer shapes (used only for memory/communication
analysis), while small configurations are used for actual CPU training runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nn
from ..tensor import Tensor

__all__ = ["BertConfig", "BertLayer", "BertModel", "bert_base", "bert_large", "bert_tiny"]


@dataclass
class BertConfig:
    """Architecture hyperparameters for :class:`BertModel`."""

    vocab_size: int = 1000
    hidden_size: int = 128
    num_layers: int = 2
    num_heads: int = 4
    intermediate_size: int = 512
    max_position_embeddings: int = 128
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")


class BertLayer(nn.Module):
    """One transformer encoder block: self-attention + feed-forward, post-LN."""

    def __init__(self, config: BertConfig, rng=None) -> None:
        super().__init__()
        self.attention = nn.MultiHeadSelfAttention(config.hidden_size, config.num_heads, config.dropout, rng=rng)
        self.attention_norm = nn.LayerNorm(config.hidden_size)
        self.intermediate = nn.Linear(config.hidden_size, config.intermediate_size, rng=rng)
        self.activation = nn.GELU()
        self.output = nn.Linear(config.intermediate_size, config.hidden_size, rng=rng)
        self.output_norm = nn.LayerNorm(config.hidden_size)
        self.dropout = nn.Dropout(config.dropout)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        attn = self.attention(x, attention_mask=attention_mask)
        x = self.attention_norm(x + self.dropout(attn))
        ff = self.output(self.activation(self.intermediate(x)))
        return self.output_norm(x + self.dropout(ff))


class BertModel(nn.Module):
    """Masked-LM transformer: embeddings, encoder stack, vocabulary head."""

    def __init__(self, config: BertConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config
        self.token_embedding = nn.Embedding(config.vocab_size, config.hidden_size, rng=rng)
        self.position_embedding = nn.Embedding(config.max_position_embeddings, config.hidden_size, rng=rng)
        self.embedding_norm = nn.LayerNorm(config.hidden_size)
        self.layers = nn.ModuleList(BertLayer(config, rng=rng) for _ in range(config.num_layers))
        # Prediction head: hidden -> vocab.  Excluded from K-FAC like the paper.
        self.mlm_head = nn.Linear(config.hidden_size, config.vocab_size, rng=rng)

    def encode(self, token_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Return the final hidden states ``(N, L, H)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.arange(token_ids.shape[1])[None, :].repeat(token_ids.shape[0], axis=0)
        hidden = self.token_embedding(token_ids) + self.position_embedding(positions)
        hidden = self.embedding_norm(hidden)
        for layer in self.layers:
            hidden = layer(hidden, attention_mask=attention_mask)
        return hidden

    def forward(self, token_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Return masked-LM logits ``(N, L, vocab_size)``."""
        return self.mlm_head(self.encode(token_ids, attention_mask=attention_mask))

    def kfac_excluded_modules(self) -> list[nn.Module]:
        """Modules that must not be preconditioned: the MLM head (no handler registers an embedding)."""
        return [self.mlm_head]


def bert_tiny(vocab_size: int = 1000, rng=None) -> BertModel:
    """A 2-layer, 128-hidden BERT used for CPU-scale convergence experiments."""
    return BertModel(BertConfig(vocab_size=vocab_size, hidden_size=128, num_layers=2, num_heads=4, intermediate_size=512), rng=rng)


def bert_base(vocab_size: int = 30522, rng=None) -> BertModel:
    """BERT-Base layer shapes (12 layers, hidden 768)."""
    config = BertConfig(
        vocab_size=vocab_size,
        hidden_size=768,
        num_layers=12,
        num_heads=12,
        intermediate_size=3072,
        max_position_embeddings=512,
    )
    return BertModel(config, rng=rng)


def bert_large(vocab_size: int = 30522, rng=None) -> BertModel:
    """BERT-Large layer shapes (24 layers, hidden 1024) as used in the paper."""
    config = BertConfig(
        vocab_size=vocab_size,
        hidden_size=1024,
        num_layers=24,
        num_heads=16,
        intermediate_size=4096,
        max_position_embeddings=512,
    )
    return BertModel(config, rng=rng)
