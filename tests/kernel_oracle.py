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

The oracle is deliberately *not* registered under a name: a fresh import of
``repro`` has one backend, and a test that wants a whole preconditioner on
these kernels swaps them in with :func:`use_reference_kernels`.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from repro.kfac import EigenDecomposition, KernelBackend, eigenvalue_outer_product, precondition_with_eigen


def scipy_syevd(factor):
    """``(eigenvalues, eigenvectors)`` of the symmetrised factor from ``scipy.linalg.eigh(driver="evd")``."""
    return sla.eigh(0.5 * (factor + factor.T), driver="evd")


def reference_symmetric_eigen(factor, compute_dtype=np.float32, clamp_negative=True, eigh_dtype=None):
    """Symmetrise, solve with ``syevr`` in at least single precision, clamp round-off negatives."""
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

    def batched_symmetric_eigen(self, factors, compute_dtype=np.float32, clamp_negative=True, eigh_dtype=None):
        return [
            reference_symmetric_eigen(
                factor, compute_dtype=compute_dtype, clamp_negative=clamp_negative, eigh_dtype=eigh_dtype
            )
            for factor in factors
        ]

    def fused_decay_update(self, running, new, decay, store_dtype):
        decay = float(decay)
        return (decay * running.astype(np.float32, copy=False) + (1.0 - decay) * new).astype(store_dtype)

    def precondition_contract(self, grad, eig_a, eig_g, damping, inverse_outer=None, pi=None):
        return precondition_with_eigen(grad, eig_a, eig_g, damping, inverse_outer, pi=pi)

    def kl_clip_accumulate(self, grads_and_precond):
        total = 0.0
        for grad, precond in grads_and_precond:
            total += float(np.sum(grad.astype(np.float64, copy=False) * precond.astype(np.float64, copy=False)))
        return total


def replicated_fold_reference(layer, a_new, g_new, factor_decay):
    """The factor fold as every rank used to run it for itself (``KFACLayer.update_factors``).

    Both running factors blended from this rank's own window, as plain
    expressions.  At world size 1 the sharded factor stage (window average
    through the bucket, folded by ``KFACLayer.fold_factor`` where it is held)
    must equal it to the bit.
    """
    dtype = layer.precision.factor_dtype
    if layer.factor_a is None:
        layer.factor_a, layer.factor_g = a_new.astype(dtype), g_new.astype(dtype)
        return
    decay = float(factor_decay)
    layer.factor_a = (decay * layer.factor_a.astype(np.float32, copy=False) + (1.0 - decay) * a_new).astype(dtype)
    layer.factor_g = (decay * layer.factor_g.astype(np.float32, copy=False) + (1.0 - decay) * g_new).astype(dtype)


def decompose_standalone(layer, damping, pi=None):
    """The eigen stage for one handler outside a preconditioner, through the kernel calls the step makes.

    ``KFAC._compute_eigen_decompositions`` sends dense factors through
    ``batched_symmetric_eigen`` and structured ones through
    ``structured_eigen``, stores the results in the inverse dtype, and the
    layer's outer worker caches the eigenvalue outer product.
    """
    compute, store = layer.precision.compute_dtype, layer.precision.inverse_dtype
    for which in ("a", "g"):
        factor, repr_ = getattr(layer, f"factor_{which}"), layer.factor_repr(which)
        if repr_.is_dense:
            (decomposition,) = layer.kernels.batched_symmetric_eigen([factor], compute_dtype=compute)
        else:
            decomposition = layer.kernels.structured_eigen(factor, repr_, compute_dtype=compute)
        setattr(layer, f"eigen_{which}", decomposition.astype(store))
    layer.inverse_outer = eigenvalue_outer_product(layer.eigen_a, layer.eigen_g, damping, dtype=store, pi=pi)


def use_reference_kernels(preconditioner):
    """Swap ``preconditioner`` and every layer it registered onto one oracle instance; returns it."""
    oracle = ReferenceKernelBackend()
    preconditioner.kernels = oracle
    for layer in preconditioner.layers.values():
        layer.kernels = oracle
    return preconditioner
