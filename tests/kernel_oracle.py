"""The plain-expression K-FAC kernels the one kernel backend replaced.

Kept as the test oracle (as ``composite_oracle.py`` keeps the composite
layers): SciPy's default ``syevr`` eigensolver one factor at a time, a
decay blend and an Eq. 15-17 contraction that allocate their temporaries, and
a ``sum(a * b)`` KL-clip accumulation.  ``tests/test_kfac_kernels.py`` and
``tests/test_factor_repr.py`` hold :class:`repro.kfac.KernelBackend` to it:
bitwise for the decay fold and the contraction, at float32 resolution for
everything downstream of an eigendecomposition.  :func:`scipy_syevd` is the
second reference: SciPy's wrapper of the very driver ``kmath.symmetric_eigen``
calls through ``cython_lapack``, which the call must equal to the bit.

Since dense factors are stored as packed triangles the oracle is also the
*square path*: :func:`as_square` expands a stored triangle with
``FactorRepr.to_dense`` before the eigen reference symmetrises and solves it,
and :func:`square_fold_reference` is the decay fold on full matrices, packed
only to be compared.  :class:`SquarePathKernelBackend` decomposes as the
backend did when factors were stored square (symmetrise, then the same LAPACK
driver) and :func:`use_square_path` puts a whole preconditioner on it (the
eigen path's π is read off the square path's own eigenvalues).  The packed
fold, the packed allreduce average, the ``?tpttr`` -> ``?syevd`` solve and
whole trajectories must equal them to the bit on exactly symmetric windows.

The oracle is deliberately *not* registered under a name: a fresh import of
``repro`` has one backend, and a test that wants a whole preconditioner on
these kernels swaps them in with :func:`use_reference_kernels`.

It is also the *dense oracle* of the structured representations:
:func:`force_dense` puts one handler's factors on one block whatever its
natural block size (``LayerNorm``'s diagonal G), and :class:`DenseFactorKFAC`
builds a preconditioner whose every layer is on it.  The structured fast
paths must reproduce it bit for bit.  :func:`force_blocks` goes the other
way: it puts a dense factor on diagonal blocks, the representation no
handler picks.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from repro.kfac import (
    KFAC,
    EigenDecomposition,
    FactorRepr,
    KernelBackend,
    eigenvalue_outer_product,
    precondition_with_eigen,
)
from repro.kfac.kmath import triangle_dim
from repro.kfac.scheduling import EigenSolveStrategy


def as_square(factor):
    """A dense factor as the full matrix: a stored packed triangle is expanded, a square passes through."""
    return FactorRepr.dense(triangle_dim(factor.shape[0])).to_dense(factor) if factor.ndim == 1 else factor


def scipy_syevd(factor):
    """``(eigenvalues, eigenvectors)`` of the symmetrised factor from ``scipy.linalg.eigh(driver="evd")``."""
    return sla.eigh(0.5 * (factor + factor.T), driver="evd")


def reference_symmetric_eigen(factor, compute_dtype=np.float32, clamp_negative=True, eigh_dtype=None):
    """Symmetrise, solve with ``syevr`` in at least single precision, clamp round-off negatives."""
    factor = as_square(factor)
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
        raise ValueError(f"factor must be square, got shape {factor.shape}")
    compute_dtype = np.dtype(compute_dtype)
    solve_dtype = np.dtype(eigh_dtype) if eigh_dtype is not None else np.promote_types(compute_dtype, np.float32)
    work = factor.astype(solve_dtype, copy=False)
    eigenvalues, eigenvectors = sla.eigh(0.5 * (work + work.T))
    if clamp_negative:
        eigenvalues = np.maximum(eigenvalues, 0.0)
    return EigenDecomposition(
        eigenvectors=eigenvectors.astype(compute_dtype, copy=False),
        eigenvalues=eigenvalues.astype(compute_dtype, copy=False),
    )


class ReferenceKernelBackend(KernelBackend):
    """Every op as the expression one would write first."""

    name = "reference"

    def batched_eigen_task(self, factors, compute_dtype=np.float32, clamp_negative=True, eigh_dtype=None):
        copies = [np.array(factor) for factor in factors]  # the solve reads nothing the caller may change
        return lambda: [
            reference_symmetric_eigen(
                factor, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
            )
            for factor in copies
        ]

    def fused_decay_update(self, running, new, decay, store_dtype):
        decay = float(decay)
        return (decay * running.astype(np.float32, copy=False) + (1.0 - decay) * new).astype(store_dtype)

    def precondition_contract(self, grad, eig_a, eig_g, damping, inverse_outer=None):
        return precondition_with_eigen(grad, eig_a, eig_g, damping, inverse_outer)

    def kl_clip_accumulate(self, grads_and_precond):
        total = 0.0
        for grad, precond in grads_and_precond:
            total += float(np.sum(grad.astype(np.float64, copy=False) * precond.astype(np.float64, copy=False)))
        return total


def square_fold_reference(repr_, running, window, decay, store_dtype):
    """The decay fold on full matrices, as it ran when a dense factor was stored square; returned packed.

    ``running`` and ``window`` are the stored (packed) operands; both are
    expanded, blended with the plain upcast expression and cast to the storage
    dtype as squares.  The fold is elementwise, so the packed fold must equal
    this to the bit.
    """
    decay = float(decay)
    running, window = repr_.to_dense(running), repr_.to_dense(window)
    blend = decay * running.astype(np.float32, copy=False) + (1.0 - decay) * window.astype(np.float32, copy=False)
    return repr_.from_dense(blend.astype(store_dtype))


class SquarePathKernelBackend(KernelBackend):
    """The built-in backend with every dense decomposition computed as it was when factors were stored square.

    Each factor is expanded to the full matrix, symmetrised with
    ``0.5 * (F + Fᵀ)`` and solved by the same driver: stacked
    ``np.linalg.eigh`` up to dimension 32, ``syevd`` beyond (through SciPy's
    wrapper, which the ``ctypes`` call equals to the bit).  Everything else is
    inherited, so a trajectory on this backend differs from the packed one
    only if expanding the triangle is not the symmetrised square.
    """

    name = "square-path"

    def batched_eigen_task(self, factors, compute_dtype=np.float32, clamp_negative=True, eigh_dtype=None):
        factors = [as_square(np.array(factor)) for factor in factors]  # copies: the solve may run later
        return lambda: self._solve_squares(factors, compute_dtype, clamp_negative, eigh_dtype)

    @staticmethod
    def _solve_squares(factors, compute_dtype, clamp_negative, eigh_dtype):
        from repro.kfac.kernels import STACK_EIGH_MAX_DIM

        if not factors:
            return []
        compute_dtype = np.dtype(compute_dtype)
        solve_dtype = np.dtype(eigh_dtype) if eigh_dtype is not None else np.promote_types(compute_dtype, np.float32)
        if factors[0].shape[0] > STACK_EIGH_MAX_DIM:
            pairs = [scipy_syevd(factor.astype(solve_dtype, copy=False)) for factor in factors]
            eigenvalues, eigenvectors = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
        else:
            stack = np.stack([factor.astype(solve_dtype, copy=False) for factor in factors])
            eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (stack + stack.transpose(0, 2, 1)))
        return [
            EigenDecomposition(
                eigenvectors=vectors.astype(compute_dtype, copy=False),
                eigenvalues=(np.maximum(values, 0.0) if clamp_negative else values).astype(compute_dtype, copy=False),
            )
            for values, vectors in zip(eigenvalues, eigenvectors)
        ]


def use_square_path(preconditioner):
    """Put ``preconditioner`` on the square path: the trajectory oracle for packed storage; returns it.

    Storage stays as it is; the decompositions expand every dense factor to
    the full matrix and compute what they computed before packed storage
    (:class:`SquarePathKernelBackend`).  The ``inverse`` solver expands for
    itself; the eigen path's π comes from the square path's eigenvalues.
    """
    oracle = SquarePathKernelBackend()
    preconditioner.kernels = oracle
    for layer in preconditioner.layers.values():
        layer.kernels = oracle
    return preconditioner


def replicated_fold_reference(layer, strategy, step, config, offset=0):
    """One handler's factor and eigen stages of ``step`` as every rank used to run them for itself.

    The base cadence written out from the rule in the README ("Scheduling"),
    not read off the scheduler: fold this rank's own window into both running
    factors on ``step % factor_update_freq == 0`` (``KFACLayer.update_factors``
    as plain expressions), decompose on step 0 and afterwards on the steps with
    ``step % inv_update_freq == offset`` -- ``offset`` is the layer's entry in
    the plan's ``refresh_offsets``.  A refresh decomposes the factors as they
    stood when its step began, before its fold (step 0, with no earlier
    factors, after it), so a step that no fold after step 0 precedes would
    decompose step 0's factors again and is passed over.  (Nested
    cadences only: a refresh off the fold cadence forces a fold and moves the
    folds after it.)  At world size 1 the sharded
    factor stage (window average handed over by the engine, folded by
    ``KFACLayer.fold_factor`` where it is held) and the planned refresh must
    equal it to the bit.  The decompositions go into ``strategy``, the
    handler's :class:`~repro.kfac.scheduling.EigenSolveStrategy`.
    """
    fold_every, interval = config.factor_update_freq, config.inv_update_freq
    assert interval % fold_every == 0
    refresh = step == 0 or (step % interval == offset and step > min(fold_every, interval))
    if refresh and step > 0:
        decompose_standalone(layer, config.damping, strategy)
    if step % fold_every == 0:
        a_new, g_new = layer.compute_batch_factors()
        dtype = layer.precision.factor_dtype
        if layer.factor_a is None:
            layer.factor_a, layer.factor_g = a_new.astype(dtype), g_new.astype(dtype)
        else:
            decay = float(config.factor_decay)
            layer.factor_a = (decay * layer.factor_a.astype(np.float32, copy=False) + (1.0 - decay) * a_new).astype(dtype)
            layer.factor_g = (decay * layer.factor_g.astype(np.float32, copy=False) + (1.0 - decay) * g_new).astype(dtype)
    if step == 0:
        decompose_standalone(layer, config.damping, strategy)


def decompose_standalone(layer, damping, strategy=None):
    """The eigen stage for one handler outside a preconditioner, through the calls the step makes; returns the strategy.

    The step sends every factor through ``eigen_task`` (one block is a ``batched_eigen_task`` of its
    triangle), installs the
    results into the layer's :class:`~repro.kfac.scheduling.EigenSolveStrategy` (``strategy``, a fresh one
    if None) in the inverse dtype, and the strategy caches the eigenvalue outer product (π-damped, π from
    the eigenvalues) with ``damping``.
    """
    strategy = EigenSolveStrategy() if strategy is None else strategy
    compute, store = layer.precision.compute_dtype, layer.precision.inverse_dtype
    for which in ("a", "g"):
        factor, repr_ = getattr(layer, f"factor_{which}"), layer.factor_repr(which)
        strategy.install(which, layer.kernels.eigen_task([factor], repr_, compute_dtype=compute)()[0], layer)
    strategy.inverse_outer = eigenvalue_outer_product(strategy.eigen_a, strategy.eigen_g, damping, dtype=store)
    return strategy


def use_reference_kernels(preconditioner):
    """Swap ``preconditioner`` and every layer it registered onto one oracle instance; returns it."""
    oracle = ReferenceKernelBackend()
    preconditioner.kernels = oracle
    for layer in preconditioner.layers.values():
        layer.kernels = oracle
    return preconditioner


def force_dense(layer):
    """``layer`` with both factors on the dense representation, whatever its handler's natural one; returns it.

    Apply before anything reads the representation (a fresh handler, or
    inside :meth:`DenseFactorKFAC._register_model`): statistics, storage,
    wire shapes and eigensolves all follow it.
    """
    layer.a_repr, layer.g_repr = FactorRepr.dense(layer.a_dim), FactorRepr.dense(layer.g_dim)
    return layer


def force_blocks(layer, which, block_size):
    """``layer`` with factor ``which`` (``"a"`` / ``"g"``) as diagonal blocks of ``block_size``; returns it.

    No handler picks a block-diagonal factor, so this is how the multi-block
    path (and, at ``block_size=1``, a diagonal factor formed from rows) runs
    end to end.  Apply when :func:`force_dense` is applied.
    """
    setattr(layer, f"{which}_repr", FactorRepr(layer.factor_repr(which).dim, block_size))
    return layer


class DenseFactorKFAC(KFAC):
    """:class:`~repro.kfac.KFAC` with every registered layer on the dense representation (:func:`force_dense`)."""

    def _register_model(self, model):
        super()._register_model(model)
        for layer in self.layers.values():
            force_dense(layer)


def kfac_class(dense_factors):
    """The dense oracle or the preconditioner itself."""
    return DenseFactorKFAC if dense_factors else KFAC
