"""Structured Kronecker-factor representations (dense / diagonal / block-diagonal).

The paper's cost analysis (Tables 4-5) prices every Kronecker factor as a
dense ``F x F`` matrix, but several Fisher blocks are *exactly* structured:
the affine part of a normalization layer has a provably diagonal G (no
feature-feature cross terms are estimated), and an embedding lookup has a
diagonal A (token frequencies).  :class:`FactorRepr` names that structure
once and every subsystem dispatches on it instead of assuming
``np.ndarray`` squares:

* **storage** — handlers accumulate and store the packed form directly: a
  dense factor is symmetric and is held once, as the ``n(n+1)/2`` elements of
  its upper triangle row by row (LAPACK's packed format,
  :func:`~repro.kfac.kmath.pack_triangle`); a diagonal one is ``(n,)`` and a
  block-diagonal one ``(num_blocks, bs, bs)``, so factor memory is O(F) /
  O(F·bs) instead of O(F²);
* **communication** — the stored form is the wire form: allreduce specs carry
  the packed payload (:meth:`comm_shape`), so the bucket manager fuses on
  real byte counts and a symmetric factor travels once;
* **eigen** — a diagonal factor's eigendecomposition is a clamp (identity
  eigenbasis), a block-diagonal factor batches per-block through the
  kernel backends' ``batched_symmetric_eigen`` seam;
* **cost model** — :meth:`packed_numel` / :meth:`eigen_flops` feed the
  per-repr byte/flop accounting of ``kfac/analysis.py`` and
  ``distributed/cost_model.py``.

Dense stays the default (Linear / Conv2d); forcing ``dense`` on a
structured layer is the tests' parity oracle (``tests/kernel_oracle.py``).
Nothing on the default step path needs the square matrix:
the fold is elementwise and the eigen solve expands the triangle into the
buffer LAPACK overwrites.  :meth:`FactorRepr.to_dense` /
:meth:`~FactorRepr.from_dense` are the only conversions, for the readers that
do (the ``inverse`` / ``cg`` solvers, tests).  A block-diagonal factor (the
Embedding handler's ``g_block_size`` only) keeps square blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kmath import expand_triangle, pack_triangle

__all__ = ["FactorRepr", "FACTOR_REPR_KINDS"]

#: Valid :attr:`FactorRepr.kind` values.
FACTOR_REPR_KINDS = ("dense", "diagonal", "block_diagonal")


@dataclass(frozen=True)
class FactorRepr:
    """How one Kronecker factor of dimension ``dim`` is represented.

    ``kind`` is one of :data:`FACTOR_REPR_KINDS`; ``block_size`` is only
    meaningful for ``block_diagonal`` (it must divide ``dim``).  Instances
    are immutable and hashable, so they can key shape groups and enter
    sanitizer fingerprints directly.
    """

    kind: str
    dim: int
    block_size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FACTOR_REPR_KINDS:
            raise ValueError(f"unknown factor repr kind {self.kind!r}; expected one of {FACTOR_REPR_KINDS}")
        if int(self.dim) < 1:
            raise ValueError(f"factor dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "block_size", int(self.block_size))
        if self.kind == "block_diagonal":
            if self.block_size < 1:
                raise ValueError("block_diagonal repr requires block_size >= 1")
            if self.dim % self.block_size != 0:
                raise ValueError(
                    f"block_size {self.block_size} does not divide factor dimension {self.dim}"
                )
        elif self.block_size != 0:
            raise ValueError(f"block_size is only valid for block_diagonal reprs, got kind={self.kind!r}")

    # ----------------------------------------------------------- constructors
    @classmethod
    def dense(cls, dim: int) -> "FactorRepr":
        return cls("dense", dim)

    @classmethod
    def diagonal(cls, dim: int) -> "FactorRepr":
        return cls("diagonal", dim)

    @classmethod
    def block_diagonal(cls, dim: int, block_size: int) -> "FactorRepr":
        return cls("block_diagonal", dim, block_size)

    # ------------------------------------------------------------- properties
    @property
    def is_dense(self) -> bool:
        return self.kind == "dense"

    @property
    def num_blocks(self) -> int:
        """Number of diagonal blocks (1 for dense, ``dim`` for diagonal)."""
        if self.kind == "block_diagonal":
            return self.dim // self.block_size
        return 1 if self.kind == "dense" else self.dim

    @property
    def packed_shape(self) -> Tuple[int, ...]:
        """Shape of the stored (packed) factor array."""
        if self.kind == "dense":
            return (self.packed_numel,)
        if self.kind == "diagonal":
            return (self.dim,)
        return (self.num_blocks, self.block_size, self.block_size)

    @property
    def packed_numel(self) -> int:
        """Elements in the packed factor — the accounting seam: one triangle of a dense factor, O(F) for a diagonal."""
        if self.kind == "dense":
            return self.dim * (self.dim + 1) // 2
        if self.kind == "diagonal":
            return self.dim
        return self.num_blocks * self.block_size * self.block_size

    @property
    def eigenvector_numel(self) -> int:
        """Elements in the stored eigenbasis (0 for diagonal: identity, implicit)."""
        if self.kind == "diagonal":
            return 0
        if self.kind == "dense":
            return self.dim * self.dim
        return self.num_blocks * self.block_size * self.block_size

    @property
    def packed_eigen_numel(self) -> int:
        """Elements in one packed eigen buffer: eigenvalues + stored eigenvectors."""
        return self.dim + self.eigenvector_numel

    def eigen_flops(self) -> float:
        """Flop-count proxy of one eigendecomposition in this representation.

        Dense keeps the historical O(n³) proxy; diagonal is O(n) (a clamp over
        the spectrum); block-diagonal decomposes ``num_blocks`` independent
        ``bs x bs`` problems.
        """
        if self.kind == "dense":
            return float(self.dim) ** 3
        if self.kind == "diagonal":
            return float(self.dim)
        return float(self.num_blocks) * float(self.block_size) ** 3

    # ---------------------------------------------------------- communication
    def comm_shape(self) -> Tuple[int, ...]:
        """Wire shape of the factor payload in allreduce specs: the stored form travels as it is."""
        return self.packed_shape

    # ------------------------------------------------------------ conversions
    def check_packed(self, packed: np.ndarray, what: str = "factor") -> None:
        """Raise if ``packed`` does not have this repr's storage shape."""
        if tuple(packed.shape) != self.packed_shape:
            raise ValueError(
                f"{what} has shape {tuple(packed.shape)}, expected {self.packed_shape} for {self.describe()}"
            )

    def diagonal_positions(self) -> np.ndarray:
        """Where the diagonal of a dense factor sits in its packed triangle: row ``i`` starts at ``i·n − i(i−1)/2``."""
        if self.kind != "dense":
            raise ValueError(f"only a dense factor is stored as a packed triangle, not {self.describe()}")
        rows = np.arange(self.dim)
        return rows * self.dim - rows * (rows - 1) // 2

    def to_dense(self, packed: np.ndarray) -> np.ndarray:
        """Expand the packed factor to the mathematically equal dense matrix."""
        packed = np.asarray(packed)
        self.check_packed(packed)
        if self.kind == "dense":
            # ``?tpttr`` fills the row-major upper triangle; the lower one is its mirror image.
            work_dtype = np.promote_types(packed.dtype, np.float32)  # no half-precision LAPACK
            upper = expand_triangle(packed.astype(work_dtype, copy=False), np.zeros((self.dim, self.dim), work_dtype))
            dense = upper + upper.T
            np.einsum("ii->i", dense)[...] = np.einsum("ii->i", upper)  # the sum counted the diagonal twice
            return dense.astype(packed.dtype, copy=False)
        if self.kind == "diagonal":
            return np.diag(packed)
        out = np.zeros((self.dim, self.dim), dtype=packed.dtype)
        bs = self.block_size
        for index in range(self.num_blocks):
            start = index * bs
            out[start : start + bs, start : start + bs] = packed[index]
        return out

    def from_dense(self, dense: np.ndarray) -> np.ndarray:
        """Project a dense matrix onto this representation (inverse of :meth:`to_dense`).

        A dense representation keeps the upper triangle: the matrix is taken
        to be symmetric and its lower triangle is not read.
        """
        dense = np.asarray(dense)
        if dense.shape != (self.dim, self.dim):
            raise ValueError(f"dense factor has shape {dense.shape}, expected {(self.dim, self.dim)}")
        if self.kind == "dense":
            return pack_triangle(dense)
        if self.kind == "diagonal":
            return np.ascontiguousarray(np.diagonal(dense))
        bs = self.block_size
        blocks = [dense[i * bs : (i + 1) * bs, i * bs : (i + 1) * bs] for i in range(self.num_blocks)]
        return np.stack(blocks)

    def as_packed(self, array: np.ndarray, what: str = "factor") -> np.ndarray:
        """``array`` in this repr's storage form; a square matrix under a dense repr (the layout before
        factors were stored as triangles, e.g. in an older checkpoint) is packed, anything else must fit."""
        array = np.asarray(array)
        if self.kind == "dense" and array.shape == (self.dim, self.dim):
            return pack_triangle(array)
        self.check_packed(array, what)
        return array

    def trace(self, packed: np.ndarray) -> float:
        """Trace of the represented matrix, computed on the packed form."""
        packed = np.asarray(packed)
        if self.kind == "dense":
            return float(np.sum(packed[self.diagonal_positions()].astype(np.float64)))
        if self.kind == "diagonal":
            return float(np.sum(packed.astype(np.float64)))
        return float(np.einsum("nii->", packed.astype(np.float64)))

    def frobenius_norm(self, packed: np.ndarray) -> float:
        """Frobenius norm of the represented matrix (float64), computed on the packed form.

        A packed triangle holds each off-diagonal entry of the matrix once, so
        the full-matrix norm is ``sqrt(2·Σp² − Σdiag²)``; the other forms hold
        exactly the nonzero entries.
        """
        packed = np.asarray(packed, dtype=np.float64)
        squares = float(np.vdot(packed, packed))
        if self.kind == "dense":
            diagonal = packed[self.diagonal_positions()]
            squares = 2.0 * squares - float(np.vdot(diagonal, diagonal))
        return float(np.sqrt(squares))

    # ---------------------------------------------------------- serialization
    def to_state(self) -> dict:
        """Plain-dict tag for checkpoints (:meth:`KFACLayer.state_dict`)."""
        return {"kind": self.kind, "dim": self.dim, "block_size": self.block_size}

    @classmethod
    def from_state(cls, state: dict) -> "FactorRepr":
        return cls(str(state["kind"]), int(state["dim"]), int(state.get("block_size", 0)))

    def describe(self) -> str:
        """Compact human/sanitizer tag, e.g. ``dense:128`` or ``block_diagonal:128x16``."""
        if self.kind == "block_diagonal":
            return f"{self.kind}:{self.dim}x{self.block_size}"
        return f"{self.kind}:{self.dim}"
