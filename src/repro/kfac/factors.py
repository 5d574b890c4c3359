"""The one Kronecker-factor representation: ``k`` diagonal blocks, each stored as a packed triangle.

A Kronecker factor (Eq. 9) is symmetric, and some are *exactly*
structured: the affine part of a normalization layer has a provably diagonal
G (no feature-feature cross terms are estimated).  :class:`FactorRepr`
describes every factor as ``k = dim // block_size`` diagonal blocks of size
``b``: a dense factor is one block (``b = dim``), a diagonal one ``dim``
blocks of one (``b = 1``), and anything between is a block-diagonal
approximation (DeepFormer's ``diag_blocks``; no handler picks one, the tests
force it).  Every subsystem reads the block size instead of assuming
``np.ndarray`` squares:

* **storage** — each block is held once, as the ``b(b+1)/2`` elements of its
  upper triangle row by row (LAPACK's packed format,
  :func:`~repro.kfac.kmath.pack_triangle`), and the blocks are concatenated
  into one flat array of :attr:`FactorRepr.packed_numel` elements: a dense
  factor is its triangle, a diagonal one its ``(n,)`` vector, so factor memory
  is O(F·b) instead of O(F²);
* **communication** — the stored form is the wire form: allreduce specs carry
  the packed payload (:attr:`~FactorRepr.packed_shape`), and a damped inverse
  travels, and is checkpointed, as the triangles of its blocks;
* **eigen / inverse** — the blocks are solved one by one through the kernel
  backend's batched seam (one block is the dense call); ``b = 1`` is a clamp
  or ``1 / (d + γ)`` with an implicit identity basis (:attr:`~FactorRepr.elementwise`);
* **cost model** — :attr:`~FactorRepr.packed_numel` / :meth:`~FactorRepr.eigen_flops`
  feed the byte/flop accounting of ``kfac/analysis.py`` and
  ``distributed/cost_model.py``.

Dense is every handler's representation but ``LayerNorm``'s diagonal G;
forcing dense on a structured layer, or blocks on a dense one, is the tests'
parity oracle (``tests/kernel_oracle.py``).  Nothing on
the default step path needs the square matrix: the fold is elementwise and
the solves expand each triangle into the buffer LAPACK overwrites.
:meth:`FactorRepr.to_dense` / :meth:`~FactorRepr.from_dense` are the only
conversions, for the readers that do (the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .kmath import expand_symmetric, pack_triangle

__all__ = ["FactorRepr"]


@dataclass(frozen=True)
class FactorRepr:
    """A factor of dimension ``dim`` as ``dim // block_size`` diagonal blocks of ``block_size``.

    ``block_size`` must divide ``dim``.  Instances are immutable and
    hashable, so they can key shape groups and enter plan digests directly.
    """

    dim: int
    block_size: int

    def __post_init__(self) -> None:
        for field in ("dim", "block_size"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"factor {field} must be an integer, got {value!r}")
            object.__setattr__(self, field, int(value))
        if self.dim < 1 or self.block_size < 1 or self.dim % self.block_size != 0:
            raise ValueError(
                f"factor dimension {self.dim} and block size {self.block_size} must be >= 1, "
                "and the block size must divide the dimension"
            )

    # ----------------------------------------------------------- constructors
    @classmethod
    def dense(cls, dim: int) -> "FactorRepr":
        """One block: the whole factor."""
        return cls(dim, dim)

    @classmethod
    def diagonal(cls, dim: int) -> "FactorRepr":
        """``dim`` blocks of one."""
        return cls(dim, 1)

    # ------------------------------------------------------------- properties
    @property
    def num_blocks(self) -> int:
        """``k``: 1 for a dense factor, ``dim`` for a diagonal one."""
        return self.dim // self.block_size

    @property
    def elementwise(self) -> bool:
        """Whether the blocks are scalars (``b = 1``, ``k > 1``): the O(F) paths.

        Statistics, solves and inverses are elementwise and the eigenbasis is
        the implicit identity.  A ``1 x 1`` factor is one block and takes the
        dense path.
        """
        return self.block_size == 1 < self.dim

    @property
    def packed_numel(self) -> int:
        """Elements in the stored factor, ``k·b(b+1)/2``: one triangle of a dense factor, O(F) for a diagonal one."""
        return self.num_blocks * self.block_size * (self.block_size + 1) // 2

    @property
    def packed_shape(self) -> Tuple[int]:
        """Shape of the stored (packed) factor array: always flat."""
        return (self.packed_numel,)

    @property
    def square_numel(self) -> int:
        """Elements of the blocks as full squares, ``k·b²``: the paper's layout (``n²`` for a dense factor)."""
        return self.num_blocks * self.block_size * self.block_size

    @property
    def held_shape(self) -> Tuple[int, ...]:
        """Shape of a held per-block square array: an eigenbasis, a structured installed inverse.

        ``(n, n)`` for one block, ``(k, b, b)`` for several, ``(n,)`` when
        :attr:`elementwise` (an inverse is ``n`` reciprocals).  A dense
        factor's damped inverse is not held square: it is one triangle of a
        buffer it shares with another (:class:`~repro.kfac.kmath.TriangleView`).
        """
        if self.num_blocks == 1:
            return (self.dim, self.dim)
        return (self.dim,) if self.elementwise else (self.num_blocks, self.block_size, self.block_size)

    @property
    def eigenvector_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of the stored eigenbasis (:attr:`held_shape`); None for the implicit identity of :attr:`elementwise`."""
        return None if self.elementwise else self.held_shape

    @property
    def packed_eigen_numel(self) -> int:
        """Elements in one packed eigen buffer: eigenvalues + stored eigenvectors."""
        return self.dim + (0 if self.eigenvector_shape is None else self.square_numel)

    def eigen_flops(self) -> float:
        """Flop-count proxy of one eigendecomposition: ``k·b³`` (``n³`` dense, ``n`` diagonal)."""
        return float(self.num_blocks) * float(self.block_size) ** 3

    # ------------------------------------------------------------ conversions
    def check_packed(self, packed: np.ndarray, what: str = "factor") -> None:
        """Raise if ``packed`` does not have this repr's storage shape."""
        if tuple(packed.shape) != self.packed_shape:
            raise ValueError(
                f"{what} has shape {tuple(packed.shape)}, expected {self.packed_shape} for {self.describe()}"
            )

    def blocks(self, packed: np.ndarray) -> np.ndarray:
        """The ``(k, b(b+1)/2)`` view of ``packed``: one block's triangle per row."""
        return packed.reshape(self.num_blocks, -1)

    def diagonal_positions(self) -> np.ndarray:
        """Where the diagonal sits in the packed array.

        Block ``j``'s row ``i`` starts at ``j·b(b+1)/2 + i·b − i(i−1)/2``: every
        position for blocks of one, ``i·n − i(i−1)/2`` for one block.
        """
        rows = np.arange(self.block_size)
        within = rows * self.block_size - rows * (rows - 1) // 2
        starts = np.arange(0, self.packed_numel, self.block_size * (self.block_size + 1) // 2)
        return (starts[:, None] + within).ravel()

    def expand(self, packed: np.ndarray) -> np.ndarray:
        """The held form (:attr:`held_shape`) of a packed symmetric array, as a fresh array: its blocks' squares."""
        if self.elementwise:
            return packed.copy()
        return self.stack([expand_symmetric(block) for block in self.blocks(packed)])

    def stack(self, squares: List[np.ndarray]) -> np.ndarray:
        """Per-block squares as held: the one square itself, or their ``(k, b, b)`` stack."""
        return squares[0] if len(squares) == 1 else np.stack(squares)

    def to_dense(self, packed: np.ndarray) -> np.ndarray:
        """Expand the packed factor to the mathematically equal dense matrix."""
        packed = np.asarray(packed)
        self.check_packed(packed)
        out = np.zeros((self.dim, self.dim), dtype=packed.dtype)
        b = self.block_size
        for start, block in zip(range(0, self.dim, b), self.blocks(packed)):
            out[start : start + b, start : start + b] = expand_symmetric(block)
        return out

    def from_dense(self, dense: np.ndarray) -> np.ndarray:
        """Project a dense matrix onto this representation (inverse of :meth:`to_dense`).

        Each diagonal block keeps its upper triangle: the matrix is taken to
        be symmetric, and nothing below the diagonal or off the blocks is read.
        """
        dense = np.asarray(dense)
        if dense.shape != (self.dim, self.dim):
            raise ValueError(f"dense factor has shape {dense.shape}, expected {(self.dim, self.dim)}")
        b = self.block_size
        return np.concatenate([pack_triangle(dense[i : i + b, i : i + b]) for i in range(0, self.dim, b)])

    def trace(self, packed: np.ndarray) -> float:
        """Trace of the represented matrix, computed on the packed form (float64)."""
        return float(np.sum(np.asarray(packed)[self.diagonal_positions()].astype(np.float64)))

    # ---------------------------------------------------------- serialization
    def to_state(self) -> dict:
        """Plain-dict tag for checkpoints (:meth:`KFACLayer.state_dict`)."""
        return {"dim": self.dim, "block_size": self.block_size}

    @classmethod
    def from_state(cls, state: dict) -> "FactorRepr":
        """The repr :meth:`to_state` wrote; ``ValueError`` for any other tag."""
        if not isinstance(state, dict) or set(state) != {"dim", "block_size"}:
            found = sorted(state) if isinstance(state, dict) else type(state).__name__
            raise ValueError(f"factor repr tag must have exactly the keys ['block_size', 'dim'], got {found}")
        return cls(state["dim"], state["block_size"])

    def describe(self) -> str:
        """Compact human tag: ``dense:128``, ``diagonal:64`` or ``blocks:1024x64``."""
        if self.num_blocks == 1:
            return f"dense:{self.dim}"
        return f"diagonal:{self.dim}" if self.elementwise else f"blocks:{self.dim}x{self.block_size}"
