"""Pluggable vectorized kernel backends for the K-FAC hot math paths.

The per-iteration cost of the preconditioner is dominated by a handful of
dense kernels: the symmetric eigendecomposition of the Kronecker factors,
the exponential-decay factor update, the preconditioned-gradient contraction
(Eqs. 15-17) and the KL-clip inner-product accumulation.  This module places
those ops behind a small named-backend registry so the preconditioner can
route them to vectorized implementations without touching the surrounding
orchestration:

* ``reference`` — the pure-NumPy/SciPy code from :mod:`repro.kfac.kmath`,
  kept verbatim as the numerical oracle.  Every other backend is tested
  against it.
* ``batched`` — the vectorized backend:

  - **batched symmetric eigendecomposition** over shape-grouped factor
    stacks: small factors (dim <= :data:`STACK_EIGH_MAX_DIM`) are stacked
    and decomposed in one ``np.linalg.eigh`` call (amortising the per-call
    LAPACK setup that dominates at those sizes), larger factors use the
    divide-and-conquer ``syevd`` driver, which is measurably faster than
    the reference's default ``syevr`` at every BERT-sized dimension;
  - **fused in-place decay updates** (``out=`` multiply-add into the running
    factor, a preallocated scratch buffer reused across steps, zero
    per-call temporaries for float32 factors);
  - **zero-copy preconditioning contractions**: dtype passthrough with
    ``astype(..., copy=False)`` and ``np.matmul(..., out=...)`` into scratch
    buffers reused across steps, so the Eq. 15-17 pipeline allocates only
    its result;
  - **fused KL-clip accumulation** via a float64 ``einsum`` reduction that
    never materialises the elementwise product.

Backend selection is a config/env knob (``KFACConfig.kernel_backend`` /
``REPRO_KERNEL``), defaulting to ``reference``.  Backends are instantiated
per preconditioner (``make_kernel_backend``) because the batched backend
owns mutable scratch buffers — sharing one instance across the threaded
ranks of a :class:`~repro.distributed.backend.ThreadedWorld` would race.

Parity tiers (asserted in ``tests/test_kfac_kernels.py``):

* ``fused_decay_update``, ``precondition_contract`` — **bitwise** equal to
  the reference for float32 state (identical elementwise/BLAS operations in
  the identical order);
* ``batched_symmetric_eigen`` — **tolerance-tiered**: ``syevd`` and the
  stacked path are exact eigendecompositions but not bit-identical to
  ``syevr``, so parity is asserted on the *preconditioned gradients* (which
  are invariant to the eigenbasis ambiguity) at float32 resolution
  (``rtol=5e-3`` with an ``atol`` scaled to the gradient magnitude);
* ``kl_clip_accumulate`` — tolerance-tiered (different float64 summation
  order), which perturbs the scalar ``nu`` by O(1e-12) relative.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np
from scipy import linalg as sla

from .factors import FactorRepr
from .kmath import (
    EigenDecomposition,
    eigenvalue_outer_product,
    kl_clip_scale_from_total,
    structured_precondition,
    symmetric_eigen,
)

__all__ = [
    "KernelBackend",
    "ReferenceKernelBackend",
    "BatchedKernelBackend",
    "register_kernel_backend",
    "make_kernel_backend",
    "available_kernel_backends",
    "default_kernel_backend",
    "STACK_EIGH_MAX_DIM",
]

#: Backend name -> class.  Mutated only through :func:`register_kernel_backend`.
_BACKEND_REGISTRY: Dict[str, type] = {}

#: Largest factor dimension routed to the stacked ``np.linalg.eigh`` path by
#: the batched backend; beyond this the divide-and-conquer ``syevd`` driver
#: on individual matrices wins (measured crossover, see module docstring).
STACK_EIGH_MAX_DIM = 32


def register_kernel_backend(name: str):
    """Class decorator registering a :class:`KernelBackend` under ``name``."""

    def decorator(cls: type) -> type:
        if not (isinstance(cls, type) and issubclass(cls, KernelBackend)):
            raise TypeError("registered kernel backend must be a KernelBackend subclass")
        _BACKEND_REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorator


def available_kernel_backends() -> List[str]:
    """Sorted names of all registered kernel backends."""
    return sorted(_BACKEND_REGISTRY)


def make_kernel_backend(name: str) -> "KernelBackend":
    """Instantiate a fresh backend (backends own per-instance scratch state)."""
    try:
        cls = _BACKEND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_kernel_backends()}"
        ) from None
    return cls()


def default_kernel_backend() -> str:
    """Default for :attr:`KFACConfig.kernel_backend`, overridable via environment.

    ``REPRO_KERNEL=batched`` routes every preconditioner through the
    vectorized backend — used by CI to run the whole suite on the batched
    kernels without code changes.  Unset (or empty) selects ``reference``.
    """
    return os.environ.get("REPRO_KERNEL", "").strip().lower() or "reference"


class KernelBackend:
    """Dispatch surface for the K-FAC hot math ops.

    The default method bodies delegate to the reference implementations, so
    a backend only overrides the ops it accelerates.  The preconditioner
    always collects the due dense factors into shape groups and calls
    :meth:`batched_symmetric_eigen` once per group; the default is a loop over
    :meth:`symmetric_eigen`, so a backend without a batched kernel decomposes
    factor by factor exactly as before.
    """

    name: str = "?"

    # ----------------------------------------------------------------- eigen
    def symmetric_eigen(
        self,
        factor: np.ndarray,
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> EigenDecomposition:
        """Eigendecompose one symmetric Kronecker factor."""
        return symmetric_eigen(
            factor, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
        )

    def batched_symmetric_eigen(
        self,
        factors: Sequence[np.ndarray],
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> List[EigenDecomposition]:
        """Eigendecompose a group of same-shape factors (default: a loop)."""
        return [
            self.symmetric_eigen(
                factor, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
            )
            for factor in factors
        ]

    def structured_eigen(
        self,
        factor: np.ndarray,
        repr: FactorRepr,
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> EigenDecomposition:
        """Eigendecompose one factor stored in its packed representation.

        * ``dense`` — the historical :meth:`symmetric_eigen` path, verbatim;
        * ``diagonal`` — O(F): the eigenvalues *are* the (clamped) stored
          vector and the eigenbasis is the implicit identity.  The spectrum
          is kept in coordinate order rather than sorted — sorting would
          force materialising a permutation basis, and the preconditioning
          contraction is invariant to the ordering;
        * ``block_diagonal`` — the per-block problems are routed through
          :meth:`batched_symmetric_eigen` (the same seam the shape-grouped
          dispatch uses), so an accelerated backend batches them for free.
        """
        repr.check_packed(factor)
        if repr.kind == "dense":
            return self.symmetric_eigen(
                factor, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
            )
        compute_dtype = np.dtype(compute_dtype)
        if repr.kind == "diagonal":
            if eigh_dtype is not None:
                solve_dtype = np.dtype(eigh_dtype)
            else:
                solve_dtype = np.promote_types(compute_dtype, np.float32)
            eigenvalues = factor.astype(solve_dtype, copy=True)
            if clamp_negative:
                np.maximum(eigenvalues, 0.0, out=eigenvalues)
            return EigenDecomposition(
                eigenvectors=None, eigenvalues=eigenvalues.astype(compute_dtype, copy=False)
            )
        decompositions = self.batched_symmetric_eigen(
            list(factor), compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
        )
        return EigenDecomposition(
            eigenvectors=np.stack([dec.eigenvectors for dec in decompositions]),
            eigenvalues=np.concatenate([dec.eigenvalues for dec in decompositions]),
        )

    # --------------------------------------------------------- factor update
    def fused_decay_update(
        self, running: np.ndarray, new: np.ndarray, decay: float, store_dtype
    ) -> np.ndarray:
        """Fold ``new`` into ``running``: ``decay*running + (1-decay)*new``.

        Returns the updated factor in ``store_dtype``.  The reference keeps
        the historical expression verbatim (upcast to float32, blend,
        downcast), allocating its temporaries.
        """
        decay = float(decay)
        return (decay * running.astype(np.float32, copy=False) + (1.0 - decay) * new).astype(
            store_dtype
        )

    # ---------------------------------------------------------- precondition
    def precondition_contract(
        self,
        grad: np.ndarray,
        eig_a: EigenDecomposition,
        eig_g: EigenDecomposition,
        damping: float,
        inverse_outer: Optional[np.ndarray] = None,
        pi: Optional[float] = None,
    ) -> np.ndarray:
        """Apply the Eq. 15-17 eigenbasis contraction to one gradient matrix.

        Structured eigenbases (identity / block stacks) take the shared
        :func:`~repro.kfac.kmath.structured_precondition` fast path — common
        to every backend, so backends agree bitwise on structured layers.
        """
        if eig_a.is_structured or eig_g.is_structured:
            return structured_precondition(grad, eig_a, eig_g, damping, inverse_outer, pi=pi)
        q_a = eig_a.eigenvectors.astype(np.float32, copy=False)
        q_g = eig_g.eigenvectors.astype(np.float32, copy=False)
        grad32 = grad.astype(np.float32, copy=False)
        v1 = q_g.T @ grad32 @ q_a  # Eq. 15
        if inverse_outer is None:
            inverse_outer = eigenvalue_outer_product(eig_a, eig_g, damping, pi=pi)
        v2 = v1 * inverse_outer.astype(np.float32, copy=False)  # Eq. 16
        return (q_g @ v2 @ q_a.T).astype(grad.dtype, copy=False)  # Eq. 17

    # --------------------------------------------------------------- kl clip
    def kl_clip_accumulate(self, grads_and_precond: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
        """Accumulate ``sum_l <grad_l, precond_l>`` in float64."""
        total = 0.0
        for grad, precond in grads_and_precond:
            total += float(
                np.sum(grad.astype(np.float64, copy=False) * precond.astype(np.float64, copy=False))
            )
        return total

    def kl_clip_scale(
        self, grads_and_precond: Sequence[Tuple[np.ndarray, np.ndarray]], lr: float, kl_clip: float
    ) -> float:
        """The ``nu`` rescale factor from the accumulated inner products."""
        return kl_clip_scale_from_total(self.kl_clip_accumulate(grads_and_precond), lr, kl_clip)


@register_kernel_backend("reference")
class ReferenceKernelBackend(KernelBackend):
    """The pure-NumPy oracle: every op is the historical kmath code path."""


@register_kernel_backend("batched")
class BatchedKernelBackend(KernelBackend):
    """Vectorized kernels: stacked/``syevd`` eigh, fused updates, scratch reuse.

    Instances hold mutable per-shape scratch buffers (keyed dicts, allocated
    on first use and reused across steps), so one instance must not be
    shared between ranks; :class:`~repro.kfac.KFAC` builds its own via
    :func:`make_kernel_backend`.
    """

    def __init__(self) -> None:
        # (shape, dtype-str) -> scratch array.  Three independent pools so
        # concurrent uses inside one op never alias each other.
        self._decay_scratch: Dict[Tuple, np.ndarray] = {}
        self._contract_scratch: Dict[Tuple, np.ndarray] = {}
        self._contract_scratch2: Dict[Tuple, np.ndarray] = {}

    def _scratch(self, pool: Dict[Tuple, np.ndarray], shape, dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        buffer = pool.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            pool[key] = buffer
        return buffer

    def scratch_bytes(self) -> int:
        """Bytes currently held in reusable scratch buffers (observability)."""
        pools = (self._decay_scratch, self._contract_scratch, self._contract_scratch2)
        return sum(buffer.nbytes for pool in pools for buffer in pool.values())

    # ----------------------------------------------------------------- eigen
    def symmetric_eigen(
        self,
        factor: np.ndarray,
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> EigenDecomposition:
        return self.batched_symmetric_eigen(
            [factor], compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
        )[0]

    def batched_symmetric_eigen(
        self,
        factors: Sequence[np.ndarray],
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> List[EigenDecomposition]:
        """Decompose same-shape factors as one vectorized group.

        Every factor must be square and share one shape (callers group by
        shape before dispatch).  Results are per-matrix identical regardless
        of batch composition (LAPACK is applied matrix-by-matrix under the
        hood), so distributed plans stay deterministic even though different
        ranks batch different factor subsets.
        """
        factors = list(factors)
        if not factors:
            return []
        n = factors[0].shape[0]
        for factor in factors:
            if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
                raise ValueError(f"factor must be square, got shape {factor.shape}")
            if factor.shape[0] != n:
                raise ValueError(
                    f"batched_symmetric_eigen requires same-shape factors, got {factor.shape} and {(n, n)}"
                )
        compute_dtype = np.dtype(compute_dtype)
        if eigh_dtype is not None:
            solve_dtype = np.dtype(eigh_dtype)
        else:
            # Paper section 3.3: never decompose below single precision.
            solve_dtype = np.promote_types(compute_dtype, np.float32)

        if n <= STACK_EIGH_MAX_DIM:
            stack = np.stack([factor.astype(solve_dtype, copy=False) for factor in factors])
            work = 0.5 * (stack + stack.transpose(0, 2, 1))
            eigenvalues, eigenvectors = np.linalg.eigh(work)
            if clamp_negative:
                np.maximum(eigenvalues, 0.0, out=eigenvalues)
            return [
                EigenDecomposition(
                    eigenvectors=eigenvectors[index].astype(compute_dtype, copy=False),
                    eigenvalues=eigenvalues[index].astype(compute_dtype, copy=False),
                )
                for index in range(len(factors))
            ]

        results: List[EigenDecomposition] = []
        for factor in factors:
            work = factor.astype(solve_dtype, copy=False)
            work = 0.5 * (work + work.T)
            # Divide-and-conquer driver: strictly faster than the reference's
            # default syevr at these sizes (measured; see module docstring).
            eigenvalues, eigenvectors = sla.eigh(work, driver="evd")
            if clamp_negative:
                np.maximum(eigenvalues, 0.0, out=eigenvalues)
            results.append(
                EigenDecomposition(
                    eigenvectors=eigenvectors.astype(compute_dtype, copy=False),
                    eigenvalues=eigenvalues.astype(compute_dtype, copy=False),
                )
            )
        return results

    # --------------------------------------------------------- factor update
    def fused_decay_update(
        self, running: np.ndarray, new: np.ndarray, decay: float, store_dtype
    ) -> np.ndarray:
        """In-place multiply-add when the factor lives in float32.

        ``running *= decay; running += (1-decay)*new`` with the scaled ``new``
        staged through a persistent per-shape scratch buffer — zero per-call
        allocations, and bitwise identical to the reference blend (identical
        float32 elementwise operations in identical order).  Non-float32
        storage (e.g. fp16 factor policies) falls back to the reference
        formula, whose upcast temporaries are the oracle numerics.
        """
        store_dtype = np.dtype(store_dtype)
        fast = (
            store_dtype == np.dtype(np.float32)
            and running.dtype == np.dtype(np.float32)
            and new.dtype == np.dtype(np.float32)
            and running.flags.writeable
        )
        if not fast:
            return super().fused_decay_update(running, new, decay, store_dtype)
        decay = float(decay)
        scratch = self._scratch(self._decay_scratch, running.shape, np.float32)
        np.multiply(new, 1.0 - decay, out=scratch)
        np.multiply(running, decay, out=running)
        np.add(running, scratch, out=running)
        return running

    # ---------------------------------------------------------- precondition
    def precondition_contract(
        self,
        grad: np.ndarray,
        eig_a: EigenDecomposition,
        eig_g: EigenDecomposition,
        damping: float,
        inverse_outer: Optional[np.ndarray] = None,
        pi: Optional[float] = None,
    ) -> np.ndarray:
        """Eq. 15-17 with ``out=``-fused matmuls and scratch reuse.

        Only the returned array is freshly allocated (it outlives the call —
        the preconditioned gradients of all layers coexist until stage 4);
        the two intermediates cycle through per-shape scratch buffers.  For
        float32 inputs the BLAS calls and the elementwise multiply are the
        same operations in the same association order as the reference, so
        the result is bitwise identical.

        Structured eigenbases bypass the scratch machinery for the shared
        structured fast path (identical to the reference backend's).
        """
        if eig_a.is_structured or eig_g.is_structured:
            return structured_precondition(grad, eig_a, eig_g, damping, inverse_outer, pi=pi)
        q_a = eig_a.eigenvectors.astype(np.float32, copy=False)
        q_g = eig_g.eigenvectors.astype(np.float32, copy=False)
        grad32 = grad.astype(np.float32, copy=False)
        if inverse_outer is None:
            inverse_outer = eigenvalue_outer_product(eig_a, eig_g, damping, pi=pi)
        outer32 = inverse_outer.astype(np.float32, copy=False)
        shape = (q_g.shape[0], q_a.shape[0])
        s1 = self._scratch(self._contract_scratch, shape, np.float32)
        s2 = self._scratch(self._contract_scratch2, shape, np.float32)
        np.matmul(q_g.T, grad32, out=s1)
        np.matmul(s1, q_a, out=s2)  # Eq. 15
        np.multiply(s2, outer32, out=s2)  # Eq. 16
        np.matmul(q_g, s2, out=s1)
        out = np.matmul(s1, q_a.T)  # Eq. 17 (fresh result array)
        return out.astype(grad.dtype, copy=False)

    # --------------------------------------------------------------- kl clip
    def kl_clip_accumulate(self, grads_and_precond: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
        """Float64 einsum reduction: no elementwise product temporary.

        Accumulation order differs from the reference's pairwise ``np.sum``,
        so the scalar agrees to float64 resolution, not bitwise (the
        documented tolerance tier for this op).
        """
        total = 0.0
        for grad, precond in grads_and_precond:
            total += float(np.einsum("ij,ij->", grad, precond, dtype=np.float64))
        return total
