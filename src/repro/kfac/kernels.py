"""The kernel backend: the K-FAC hot math at the speed of the BLAS/LAPACK call underneath.

The per-iteration cost of the preconditioner is dominated by a handful of
dense kernels: the damped Cholesky inverse or the symmetric
eigendecomposition of the Kronecker factors, the exponential-decay factor
update, the preconditioned-gradient products (two ``?symm`` with the inverses,
or the Eqs. 15-17 contraction) and the KL-clip inner-product accumulation.
They sit behind one class, :class:`KernelBackend` (named ``batched``):

* **damped inverse** (:meth:`KernelBackend.inverse_task`, the default
  path's refresh): ``?potrf`` + ``?potri`` on the damped factor, expanded
  from its triangle with ``?tpttr`` and packed back with ``?trttp`` (all
  bound beside ``?syevd`` and called without the interpreter lock), block by
  block; a diagonal factor (blocks of one) is ``1 / (d + γ)``.  A dense
  inverse is held as one triangle of a buffer it shares with another
  (:class:`~repro.kfac.kmath.TriangleView`), and each step preconditions with
  ``G⁻¹ · V · A⁻¹`` (:meth:`KernelBackend.precondition_inverse`): one
  ``?symm`` per side (bound from ``scipy.linalg.cython_blas``), which reads
  that triangle alone;

* **eigendecomposition** over shape-grouped factor stacks: small factors
  (dim <= :data:`STACK_EIGH_MAX_DIM`) are stacked and decomposed in one
  ``np.linalg.eigh`` call (amortising the per-call LAPACK setup that dominates
  at those sizes), larger factors go one by one through
  :func:`~repro.kfac.kmath.symmetric_eigen`: LAPACK's divide-and-conquer
  ``syevd`` (1.6-1.9x faster than ``syevr`` at BERT-sized dimensions), called
  on the C pointer ``scipy.linalg.cython_lapack`` publishes, so the interpreter
  lock is released for the solve and the threaded ranks of one process
  decompose their shares of the factors at the same time.  A dense factor
  arrives as its packed triangle (``?trttp`` / ``?tpttr`` are bound beside
  ``?syevd``) and is expanded straight into the buffer the solver overwrites
  -- a stacked group into one stack; one stored triangle is symmetric by
  construction, so there is no symmetrise pass.  Every path rejects a
  non-finite factor -- and the ``syevd`` path a non-zero LAPACK ``info``, the
  stacked ``eigh`` a failure to converge, which it re-solves member by member
  to place -- with an error that says which member of the group failed
  (``error.batch_index``), before anything is installed.  Every path comes
  in two halves (:meth:`KernelBackend.eigen_task`), the tasks of
  :class:`~repro.kfac.refresh.RefreshQueue`;
* **decay fold into a fresh array**: ``new *= 1-decay; blend =
  running*decay; blend += new`` on the window average the caller hands over:
  one allocation, the result, and no held scratch buffer.  A published
  running factor is never written, so a refresh task reads it where it lies
  instead of copying it out;
* **preconditioning contraction** with ``np.matmul(..., out=...)`` into two
  per-shape scratch buffers reused across steps, so the Eq. 15-17 pipeline
  allocates only its result;
* **KL-clip accumulation** via a float64 ``einsum`` reduction that never
  materialises the elementwise product.

The contraction scratch is mutable per-instance state, so backends are
instantiated per owner: sharing one instance across the threaded ranks of a
:class:`~repro.distributed.backend.ThreadedWorld` would race.  Other kernels
are a subclass that overrides the ops it accelerates, assigned to a
preconditioner's ``kernels`` and to each of its layers' (as
``tests/kernel_oracle.py`` does with the oracle).

The plain expressions these kernels replaced (``syevr``, temporaries, a
``sum(a*b)`` KL-clip) live on as the oracle in ``tests/kernel_oracle.py``;
``tests/test_kfac_kernels.py`` holds the backend to it in tiers:

* ``fused_decay_update``, ``precondition_contract`` -- **bitwise** equal
  for float32 state (identical elementwise/BLAS operations in the identical
  order);
* ``inverse_task`` -- its packed triangle is **bitwise** the ``?potri``
  result SciPy's ``lapack.spotrf`` / ``spotri`` give on the expanded damped
  square, and within float32 resolution of a float64 ``np.linalg.inv``;
* ``precondition_inverse``'s ``?symm`` -- within float32 resolution of the
  dense products on generated shapes, and **bitwise** numpy's GEMM on the
  BERT shapes (pinned, so a BLAS that rounds otherwise surfaces);
* the ``syevd`` call itself -- **bitwise** the eigenvalues and eigenvectors
  SciPy's own wrapper of that driver returns on the expanded square (the same
  routine on the same lower triangle; SciPy is the test-side reference,
  ``src/`` does not call it);
* ``batched_symmetric_eigen`` -- ``syevd`` and the stacked path are exact
  eigendecompositions but not bit-identical to ``syevr``, so parity with the
  oracle is asserted on the *preconditioned gradients* (which are invariant to
  the eigenbasis ambiguity) at float32 resolution (``rtol=5e-3`` with an
  ``atol`` scaled to the gradient magnitude);
* ``kl_clip_accumulate`` -- a different float64 summation order, which
  perturbs the scalar ``nu`` by O(1e-12) relative.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .factors import FactorRepr
from .kmath import (
    EigenDecomposition,
    as_packed_triangle,
    eigenvalue_outer_product,
    eigen_of_expanded,
    eigh_solve_dtype,
    expand_damped,
    expand_for_eigen,
    expand_triangle,
    inverse_of_expanded,
    kl_clip_scale_from_total,
    precondition_with_inverse,
    structured_precondition,
    symm_product,
    triangle_dim,
    TriangleView,
)

__all__ = ["KernelBackend", "make_kernel_backend", "STACK_EIGH_MAX_DIM"]

#: Largest factor dimension routed to the stacked ``np.linalg.eigh`` path;
#: beyond this ``syevd`` on individual matrices wins (measured crossover).
STACK_EIGH_MAX_DIM = 32


@contextlib.contextmanager
def _member(index: int):
    """Tag an eigen error raised inside the block with the failing member's ``batch_index``."""
    try:
        yield
    except (ValueError, np.linalg.LinAlgError) as error:
        error.batch_index = index  # lets the caller name the factor
        raise


def _reject_non_finite(factors: Sequence[np.ndarray], dim: int) -> None:
    """Raise what the ``syevd`` path raises for the first factor with an inf or a NaN, carrying its ``batch_index``."""
    for index, factor in enumerate(factors):
        if not np.isfinite(factor).all():
            error = ValueError(f"factor of dimension {dim} contains infs or NaNs")
            error.batch_index = index
            raise error


class KernelBackend:
    """The K-FAC hot math ops; subclass and override to plug in other kernels.

    Instances hold mutable per-shape scratch buffers for the preconditioning
    contraction (allocated on first use and reused across steps), so one
    instance must not be shared between ranks; :class:`~repro.kfac.KFAC` and a
    directly constructed :class:`~repro.kfac.layers.KFACLayer` each build
    their own.
    """

    name: str = "batched"

    def __init__(self) -> None:
        # (shape, dtype-str) -> scratch array.  Two pools: the contraction
        # ping-pongs between them, so its operands never alias its output.
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
        pools = (self._contract_scratch, self._contract_scratch2)
        return sum(buffer.nbytes for pool in pools for buffer in pool.values())

    # ----------------------------------------------------------------- eigen
    def symmetric_eigen(
        self,
        factor: np.ndarray,
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> EigenDecomposition:
        """Eigendecompose one symmetric Kronecker factor: its packed triangle, or the square matrix (packed on entry)."""
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
        """Decompose dense symmetric factors of one dimension as one group.

        Each factor is the packed triangle a dense
        :class:`~repro.kfac.factors.FactorRepr` stores (1-D, ``n(n+1)/2``
        elements), or a square matrix, which is packed on entry; all must share
        one dimension (callers group by it before dispatch).  A factor of
        several blocks does not belong here -- :meth:`eigen_task` passes its
        blocks' triangles.  Results are per-matrix identical regardless
        of batch composition (LAPACK is applied matrix-by-matrix under the
        hood), so distributed plans stay deterministic even though different
        ranks batch different factor subsets.  An error raised by the solve
        of one member carries its position as ``error.batch_index``.
        """
        return self.batched_eigen_task(
            factors, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
        )()

    def batched_eigen_task(
        self,
        factors: Sequence[np.ndarray],
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> Callable[[], List[EigenDecomposition]]:
        """:meth:`batched_symmetric_eigen` in two halves: this call checks ``factors``, the callable it returns solves.

        This call checks the group's shapes (one dimension) and keeps
        references to the factors; the callable checks each is finite,
        expands its triangle into a private buffer -- the column-major one
        ``syevd`` overwrites above :data:`STACK_EIGH_MAX_DIM`
        (:func:`~repro.kfac.kmath.expand_for_eigen`), one stack for ``eigh``
        at or below it -- and solves.  A published running factor is never
        written (a fold makes a new array), so the solve may run on another
        thread while the step folds.  An error carries the failing member's
        position as ``error.batch_index``.
        """
        factors = list(factors)
        if not factors:
            return list
        dims = sorted({factor.shape[0] if factor.ndim == 2 else triangle_dim(factor.size) for factor in factors})
        if len(dims) > 1:
            raise ValueError(f"batched_symmetric_eigen requires same-shape factors, got dimensions {dims}")
        n = dims[0]
        compute_dtype = np.dtype(compute_dtype)
        solve_dtype = eigh_solve_dtype(compute_dtype, eigh_dtype)
        if n > STACK_EIGH_MAX_DIM:

            def solve_each() -> List[EigenDecomposition]:
                decompositions = []
                for index, factor in enumerate(factors):
                    with _member(index):
                        buffer = expand_for_eigen(factor, solve_dtype)
                        decompositions.append(eigen_of_expanded(buffer, compute_dtype, clamp_negative))
                return decompositions

            return solve_each

        def solve_stack() -> List[EigenDecomposition]:
            packed = [as_packed_triangle(factor) for factor in factors]
            _reject_non_finite(packed, n)  # ``eigh`` would return NaN eigenvalues without a word
            # The whole group expands into one stack.  ``?tpttr`` fills each member's row-major upper
            # triangle, so the transposed view is what ``eigh`` (which uses the lower one) is given.  The
            # other triangle is zeros, not uninitialised: it is still loaded, and ``eigh`` reports the
            # FP-invalid flag a stray signalling NaN raises as non-convergence.
            stack = np.zeros((len(packed), n, n), dtype=solve_dtype)
            for member, factor in zip(stack, packed):
                expand_triangle(factor.astype(solve_dtype, copy=False), member)
            try:
                eigenvalues, eigenvectors = np.linalg.eigh(stack.transpose(0, 2, 1))
            except np.linalg.LinAlgError:
                # The stacked call does not say which member failed: the first one that fails alone is named.
                for index, member in enumerate(stack):
                    with _member(index):
                        np.linalg.eigh(member.T)
                raise
            if clamp_negative:
                np.maximum(eigenvalues, 0.0, out=eigenvalues)
            return [
                EigenDecomposition(
                    eigenvectors=eigenvectors[index].astype(compute_dtype, copy=False),
                    eigenvalues=eigenvalues[index].astype(compute_dtype, copy=False),
                )
                for index in range(len(packed))
            ]

        return solve_stack

    def structured_eigen(
        self,
        factor: np.ndarray,
        repr: FactorRepr,
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> EigenDecomposition:
        """Eigendecompose one factor stored in its packed representation: :meth:`eigen_task` of it, run at once."""
        return self.eigen_task(
            [factor], repr, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
        )()[0]

    def eigen_task(
        self,
        factors: Sequence[np.ndarray],
        repr: FactorRepr,
        compute_dtype=np.float32,
        clamp_negative: bool = True,
        eigh_dtype=None,
    ) -> Callable[[], List[EigenDecomposition]]:
        """The decompositions of ``factors``, all stored as ``repr``, in two halves like :meth:`batched_eigen_task`.

        The blocks' packed triangles go through :meth:`batched_eigen_task`
        (one block is the dense call itself, several are that seam's one
        group, so a backend's batched kernel covers them too), the
        eigenvalues concatenated and the bases stacked block by block.  An
        :attr:`~repro.kfac.factors.FactorRepr.elementwise` factor is O(F):
        the eigenvalues *are* the (clamped) stored vector and the eigenbasis
        is the implicit identity, the spectrum kept in coordinate order
        rather than sorted -- sorting would force materialising a
        permutation basis, and the preconditioning contraction is invariant
        to the ordering.
        """
        factors = list(factors)
        for factor in factors:
            repr.check_packed(factor)
        if repr.elementwise:
            solve_dtype = eigh_solve_dtype(compute_dtype, eigh_dtype)

            def clamp() -> List[EigenDecomposition]:
                _reject_non_finite(factors, repr.dim)  # an inf would pass the clamp and become an eigenvalue
                decompositions = []
                for factor in factors:
                    eigenvalues = factor.astype(solve_dtype, copy=True)
                    if clamp_negative:
                        np.maximum(eigenvalues, 0.0, out=eigenvalues)
                    decompositions.append(EigenDecomposition(None, eigenvalues.astype(compute_dtype, copy=False)))
                return decompositions

            return clamp
        blocks = self.batched_eigen_task(
            [block for factor in factors for block in repr.blocks(factor)],
            compute_dtype=compute_dtype,
            clamp_negative=clamp_negative,
            eigh_dtype=eigh_dtype,
        )

        def stack_blocks() -> List[EigenDecomposition]:
            decompositions, count = blocks(), repr.num_blocks
            members = [decompositions[start : start + count] for start in range(0, len(decompositions), count)]
            return [
                EigenDecomposition(
                    eigenvectors=repr.stack([dec.eigenvectors for dec in member]),
                    eigenvalues=np.concatenate([dec.eigenvalues for dec in member]),
                )
                for member in members
            ]

        return stack_blocks

    # --------------------------------------------------------------- inverse
    def inverse_task(
        self,
        factors: Sequence[np.ndarray],
        repr: FactorRepr,
        dampings: Sequence[float],
        compute_dtype=np.float32,
    ) -> Callable[[], List[np.ndarray]]:
        """The damped inverses ``(factor + γI)⁻¹`` of ``factors`` (all stored as ``repr``, one ``γ`` each), in two halves.

        Like :meth:`eigen_task`: this call checks the shapes and keeps
        references to the factors, and the callable it returns checks each is
        finite, expands it damped and solves; an error carries the failing
        member's position as ``error.batch_index``.  The solve runs in at
        least single precision (:func:`~repro.kfac.kmath.eigh_solve_dtype`)
        and each result is the inverse in the factor's packed form
        (:attr:`~repro.kfac.factors.FactorRepr.packed_shape`), the one form
        every holder installs and the eigen round carries: every block's
        ``?potrf`` + ``?potri`` on its damped square, packed by ``?trttp``
        (:func:`~repro.kfac.kmath.inverse_of_expanded`); an
        :attr:`~repro.kfac.factors.FactorRepr.elementwise` factor's is
        ``1 / (d + γ)``, O(F).
        """
        factors, dampings = list(factors), list(dampings)
        for factor in factors:
            repr.check_packed(factor)
        solve_dtype = eigh_solve_dtype(compute_dtype)
        if repr.elementwise:

            def reciprocals() -> List[np.ndarray]:
                _reject_non_finite(factors, repr.dim)
                inverses = []
                for index, (factor, damping) in enumerate(zip(factors, dampings)):
                    diagonal = factor.astype(solve_dtype) + solve_dtype.type(damping)
                    if not (diagonal > 0).all():
                        error = np.linalg.LinAlgError(f"the damped factor of dimension {repr.dim} is not positive definite")
                        error.batch_index = index
                        raise error
                    inverses.append(np.reciprocal(diagonal, out=diagonal))
                return inverses

            return reciprocals

        def solve_each() -> List[np.ndarray]:
            inverses = []
            for index, (factor, damping) in enumerate(zip(factors, dampings)):
                with _member(index):
                    triangles = [
                        inverse_of_expanded(expand_damped(block, damping, solve_dtype)) for block in repr.blocks(factor)
                    ]
                inverses.append(triangles[0] if len(triangles) == 1 else np.concatenate(triangles))
            return inverses

        return solve_each

    # --------------------------------------------------------- factor update
    def fused_decay_update(
        self, running: np.ndarray, new: np.ndarray, decay: float, store_dtype
    ) -> np.ndarray:
        """``decay*running + (1-decay)*new`` in ``store_dtype``, as a fresh array; ``running`` is never written.

        A published running factor stays as it is, so a refresh task that
        holds it solves the factor its step began with.  When the factor
        lives in float32, ``new`` is consumed as the staging buffer:
        ``new *= 1-decay; blend = running*decay; blend += new`` -- one
        allocation (the result), no scratch, the identical float32 operations
        as the plain blend.  ``new`` is the window average the caller owns
        and has no further use for.  Other storage (e.g. fp16 factor
        policies) or a read-only ``new`` takes the plain
        upcast-blend-downcast expression and leaves both untouched.
        """
        store_dtype = np.dtype(store_dtype)
        decay = float(decay)
        float32 = np.dtype(np.float32)
        if store_dtype == float32 and running.dtype == float32 and new.dtype == float32 and new.flags.writeable:
            new *= 1.0 - decay
            blend = running * decay
            blend += new
            return blend
        # Both operands upcast: a window that travelled in a narrower factor dtype is blended in float32 too.
        blend = decay * running.astype(np.float32, copy=False) + (1.0 - decay) * new.astype(np.float32, copy=False)
        return blend.astype(store_dtype)

    # ---------------------------------------------------------- precondition
    def precondition_contract(
        self,
        grad: np.ndarray,
        eig_a: EigenDecomposition,
        eig_g: EigenDecomposition,
        damping: float,
        inverse_outer: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply the Eq. 15-17 eigenbasis contraction to one gradient matrix.

        Only the returned array is freshly allocated (it outlives the call --
        the preconditioned gradients of all layers coexist until stage 4);
        the two intermediates cycle through per-shape scratch buffers.  For
        float32 inputs the BLAS calls and the elementwise multiply are the
        operations of ``q_g @ ((q_gᵀ @ grad @ q_a) * outer) @ q_aᵀ`` in the
        same association order, so the result is bitwise that expression's.

        Structured eigenbases (identity / block stacks) take the shared
        :func:`~repro.kfac.kmath.structured_precondition` fast path.
        """
        if eig_a.is_structured or eig_g.is_structured:
            return structured_precondition(grad, eig_a, eig_g, damping, inverse_outer)
        q_a = eig_a.eigenvectors.astype(np.float32, copy=False)
        q_g = eig_g.eigenvectors.astype(np.float32, copy=False)
        grad32 = grad.astype(np.float32, copy=False)
        if inverse_outer is None:
            inverse_outer = eigenvalue_outer_product(eig_a, eig_g, damping)
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

    def precondition_inverse(self, grad: np.ndarray, inv_a, inv_g) -> np.ndarray:
        """``G⁻¹ · grad · A⁻¹`` with installed damped inverses: one ``?symm`` per side.

        A dense inverse is a triangle view (:class:`~repro.kfac.kmath.TriangleView`),
        read one triangle each; the first product goes into a per-shape scratch buffer,
        the second into the fresh result, in float32.  That is bitwise
        :func:`~repro.kfac.kmath.precondition_with_inverse`, which takes the
        structured (1-D diagonal, block-stacked) inverses.
        """
        if not isinstance(inv_a, TriangleView) or not isinstance(inv_g, TriangleView):
            return precondition_with_inverse(grad, inv_a, inv_g)
        grad32 = np.ascontiguousarray(grad, dtype=np.float32)
        scratch = self._scratch(self._contract_scratch, grad32.shape, np.float32)
        symm_product(inv_g.astype(np.float32), grad32, "left", out=scratch)
        return symm_product(inv_a.astype(np.float32), scratch, "right").astype(grad.dtype, copy=False)

    # --------------------------------------------------------------- kl clip
    def kl_clip_accumulate(self, grads_and_precond: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
        """Accumulate ``sum_l <grad_l, precond_l>`` in float64, no product temporary."""
        total = 0.0
        for grad, precond in grads_and_precond:
            total += float(np.einsum("ij,ij->", grad, precond, dtype=np.float64))
        return total

    def kl_clip_scale(
        self, grads_and_precond: Sequence[Tuple[np.ndarray, np.ndarray]], lr: float, kl_clip: float
    ) -> float:
        """The ``nu`` rescale factor from the accumulated inner products."""
        return kl_clip_scale_from_total(self.kl_clip_accumulate(grads_and_precond), lr, kl_clip)


def make_kernel_backend(name: str = KernelBackend.name) -> KernelBackend:
    """A fresh :class:`KernelBackend` (backends own per-instance scratch state); ``name`` must be its name."""
    if name != KernelBackend.name:
        raise ValueError(f"unknown kernel backend {name!r}; the one backend is {KernelBackend.name!r}")
    return KernelBackend()
