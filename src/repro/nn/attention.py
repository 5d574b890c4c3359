"""Multi-head self-attention (transformer building block)."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..tensor import Tensor
from .dropout import Dropout
from .functional import scaled_dot_product_attention
from .linear import Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Standard multi-head self attention over ``(N, L, D)`` sequences.

    The query/key/value/output projections are plain :class:`Linear` layers,
    which is exactly the layer population KAISA preconditions inside each
    BERT transformer block; everything between them (scores, padding bias,
    softmax, attention dropout, context) is one autograd node,
    :func:`~repro.nn.functional.scaled_dot_product_attention`.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.query = Linear(embed_dim, embed_dim, rng=rng)
        self.key = Linear(embed_dim, embed_dim, rng=rng)
        self.value = Linear(embed_dim, embed_dim, rng=rng)
        self.out = Linear(embed_dim, embed_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        # (N, L, D) -> (N, H, L, d)
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        batch, length, _ = x.shape
        q = self._split_heads(self.query(x), batch, length)
        k = self._split_heads(self.key(x), batch, length)
        v = self._split_heads(self.value(x), batch, length)

        bias = None
        if attention_mask is not None:
            # attention_mask: (N, L) with 1 for valid tokens, 0 for padding.
            mask = np.asarray(attention_mask, dtype=q.dtype)
            bias = (1.0 - mask)[:, None, None, :] * -1e4
        # Attention dropout acts on the softmax weights; the mask comes from the Dropout module's stream.
        dropout_mask = self.dropout.keep_mask((batch, self.num_heads, length, length), q.dtype)
        context = scaled_dot_product_attention(
            q, k, v, bias, 1.0 / math.sqrt(self.head_dim), dropout_mask
        )  # (N, H, L, d)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, self.embed_dim)
        return self.out(context)

    def __repr__(self) -> str:
        return f"MultiHeadSelfAttention(embed_dim={self.embed_dim}, num_heads={self.num_heads})"
