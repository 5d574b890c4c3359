"""Numerical kernels for K-FAC preconditioning.

Implements the paper's equations:

* Eq. 9   — Kronecker factors ``A = a aᵀ`` and ``G = g gᵀ`` (built in
  :mod:`repro.kfac.layers`),
* Eq. 12  — damped inverse ``(F̂ + γI)⁻¹ = (A + γI)⁻¹ ⊗ (G + γI)⁻¹``,
* Eqs. 15–17 — the eigen-decomposition preconditioning path used by KAISA,
  including the cached eigenvalue outer product ``1/(v_G v_Aᵀ + γ)`` that
  section 4.4 moves into the (infrequent) eigen-decomposition stage.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cython_lapack

__all__ = [
    "EigenDecomposition",
    "eigh_solve_dtype",
    "symmetric_eigen",
    "eigenvalue_outer_product",
    "precondition_with_eigen",
    "structured_precondition",
    "apply_eigenbasis_left",
    "apply_eigenbasis_right",
    "precondition_with_inverse",
    "damped_inverse",
    "kl_clip_scale",
    "kl_clip_scale_from_total",
    "tikhonov_pi",
]


@dataclass
class EigenDecomposition:
    """Eigenvectors and eigenvalues of a symmetric Kronecker factor.

    ``eigenvalues`` is always the flat ``(n,)`` spectrum.  ``eigenvectors``
    depends on the factor representation:

    * ``(n, n)`` — dense factor, columns are eigenvectors;
    * ``None`` — diagonal factor: the eigenbasis is the identity and is never
      materialised (the eigenvalues are the clamped diagonal, kept in
      coordinate order so they stay aligned with the implicit basis);
    * ``(num_blocks, bs, bs)`` — block-diagonal factor: the per-block
      eigenbases, with the eigenvalues concatenated block by block.
    """

    eigenvectors: Optional[np.ndarray]
    eigenvalues: np.ndarray  # (n,)

    @property
    def nbytes(self) -> int:
        total = self.eigenvalues.nbytes
        if self.eigenvectors is not None:
            total += self.eigenvectors.nbytes
        return total

    def astype(self, dtype) -> "EigenDecomposition":
        eigenvectors = None if self.eigenvectors is None else self.eigenvectors.astype(dtype)
        return EigenDecomposition(eigenvectors, self.eigenvalues.astype(dtype))

    @property
    def is_structured(self) -> bool:
        """Whether the eigenbasis is implicit (diagonal) or a block stack."""
        return self.eigenvectors is None or self.eigenvectors.ndim == 3


def eigh_solve_dtype(compute_dtype, eigh_dtype=None) -> np.dtype:
    """Precision an eigen solve runs in: ``eigh_dtype`` if given, else at least single (paper section 3.3)."""
    if eigh_dtype is not None:
        return np.dtype(eigh_dtype)
    return np.promote_types(compute_dtype, np.float32)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bind_syevd(name: str, real: str):
    """LAPACK ``?syevd`` as a ``ctypes`` function on the C pointer SciPy publishes for it.

    ``scipy.linalg.cython_lapack.__pyx_capi__`` holds one capsule per routine,
    named by its C signature, so that other extensions can call LAPACK without
    linking it (the route numba takes).  A ``ctypes`` foreign call releases the
    interpreter lock for its duration, which SciPy's and NumPy's own ``eigh``
    wrappers do not: threaded ranks decompose their factors side by side.
    There is no fallback, so a SciPy whose capsule reads differently fails at
    import, naming both signatures.
    """
    scalar = f"__pyx_t_5scipy_6linalg_13cython_lapack_{real}"
    expected = f"void (char *, char *, int *, {scalar} *, int *, {scalar} *, {scalar} *, int *, int *, int *, int *)"
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    if signature != expected.encode():
        raise ImportError(f"scipy.linalg.cython_lapack.{name} has signature {signature!r}, expected {expected!r}")
    int_p = ctypes.POINTER(ctypes.c_int)
    prototype = ctypes.CFUNCTYPE(
        None,
        ctypes.c_char_p,  # jobz
        ctypes.c_char_p,  # uplo
        int_p,  # n
        ctypes.c_void_p,  # a
        int_p,  # lda
        ctypes.c_void_p,  # w
        ctypes.c_void_p,  # work
        int_p,  # lwork
        ctypes.c_void_p,  # iwork
        int_p,  # liwork
        int_p,  # info
    )
    return prototype(_capsule_pointer(capsule, signature))


#: Solve dtype -> the LAPACK divide-and-conquer routine for it, bound once at import.
_SYEVD = {
    np.dtype(np.float32): _bind_syevd("ssyevd", "s"),
    np.dtype(np.float64): _bind_syevd("dsyevd", "d"),
}


def symmetric_eigen(
    factor: np.ndarray,
    compute_dtype=np.float32,
    clamp_negative: bool = True,
    eigh_dtype=None,
) -> EigenDecomposition:
    """Eigen-decompose a symmetric Kronecker factor.

    Factors are symmetric positive semi-definite by construction (Eq. 9), so
    eigenvalues are real and eigenvectors orthogonal; tiny negative
    eigenvalues caused by floating-point round-off are clamped to zero.  Per
    paper section 3.3, the decomposition is always computed in at least
    single precision even when factors are stored in fp16: the solve runs in
    ``promote_types(compute_dtype, float32)``, so fp32 policies decompose in
    fp32 and fp64 policies in fp64.  ``eigh_dtype`` overrides the solve
    precision explicitly (e.g. ``np.float64`` to force a double-precision
    decomposition under an fp32 policy).  The solver is LAPACK's
    divide-and-conquer ``syevd`` (all eigenpairs are wanted, and at K-FAC
    factor sizes it is 1.6-1.9x faster than ``syevr``), called without the
    interpreter lock (:func:`_bind_syevd`); this is the only place that calls
    it.  The input is not modified.

    Raises ``ValueError`` for a factor with non-finite entries and
    ``np.linalg.LinAlgError`` when LAPACK reports ``info != 0``, both naming
    the dimension.
    """
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
        raise ValueError(f"factor must be square, got shape {factor.shape}")
    compute_dtype = np.dtype(compute_dtype)
    solve_dtype = eigh_solve_dtype(compute_dtype, eigh_dtype)
    if solve_dtype not in _SYEVD:
        raise TypeError(f"eigen solve dtype must be float32 or float64, got {solve_dtype}")
    n = factor.shape[0]
    lwork, liwork = 1 + 6 * n + 2 * n * n, 3 + 5 * n
    if lwork > np.iinfo(np.intc).max:
        raise ValueError(f"factor of dimension {n} needs a workspace beyond LAPACK's 32-bit sizes")
    work = factor.astype(solve_dtype, copy=False)
    # Symmetrize (protects against accumulation drift) straight into the
    # column-major buffer LAPACK overwrites with the eigenvectors.
    eigenvectors = np.empty((n, n), dtype=solve_dtype, order="F")
    np.add(work, work.T, out=eigenvectors)
    eigenvectors *= 0.5
    if not np.isfinite(eigenvectors).all():
        raise ValueError(f"factor of dimension {n} contains infs or NaNs")
    eigenvalues = np.empty(n, dtype=solve_dtype)
    scratch = np.empty(lwork, dtype=solve_dtype)
    iscratch = np.empty(liwork, dtype=np.intc)
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    _SYEVD[solve_dtype](
        b"V",
        b"L",
        order,
        eigenvectors.ctypes.data,
        order,
        eigenvalues.ctypes.data,
        scratch.ctypes.data,
        ctypes.c_int(lwork),
        iscratch.ctypes.data,
        ctypes.c_int(liwork),
        info,
    )
    if info.value != 0:
        raise np.linalg.LinAlgError(f"syevd failed on a factor of dimension {n}: info={info.value}")
    if clamp_negative:
        np.maximum(eigenvalues, 0.0, out=eigenvalues)
    return EigenDecomposition(
        eigenvectors=eigenvectors.astype(compute_dtype, copy=False),
        eigenvalues=eigenvalues.astype(compute_dtype, copy=False),
    )


def eigenvalue_outer_product(
    eig_a: EigenDecomposition,
    eig_g: EigenDecomposition,
    damping: float,
    dtype=np.float32,
    pi: Optional[float] = None,
) -> np.ndarray:
    """Precompute ``1 / (v_G v_Aᵀ + γ)`` (paper section 4.4).

    The result has shape ``(dim_G, dim_A)`` and only changes when the eigen
    decompositions are updated, so computing it once per K-FAC update (and
    broadcasting it instead of the raw eigenvalues) removes redundant work
    from every per-iteration preconditioning call.

    ``pi`` enables the factor-trace π correction (see :func:`tikhonov_pi`):
    the damping splits per factor as ``γ_a = π√γ``, ``γ_g = √γ/π`` and the
    damped spectra are multiplied, i.e. ``1 / ((v_G + √γ/π)(v_A + π√γ)ᵀ)``.
    ``pi=None`` (the default) keeps the uncorrected formula bit for bit.
    """
    v_g = eig_g.eigenvalues.astype(np.float64)
    v_a = eig_a.eigenvalues.astype(np.float64)
    if pi is None:
        outer = np.outer(v_g, v_a) + float(damping)
    else:
        root = float(np.sqrt(float(damping)))
        pi = float(pi)
        outer = np.outer(v_g + root / pi, v_a + pi * root)
    return (1.0 / outer).astype(dtype)


def _packed_trace_and_dim(factor: np.ndarray) -> Tuple[float, int]:
    """Trace and represented dimension of a (possibly packed) factor.

    Recognises the three storage forms of :class:`repro.kfac.factors.FactorRepr`
    by rank: 2-D is a dense square, 1-D a diagonal vector, 3-D a stack of
    diagonal blocks — so callers holding only the array stay repr-agnostic.
    """
    if factor.ndim == 1:
        return float(np.sum(factor.astype(np.float64))), factor.shape[0]
    if factor.ndim == 3:
        return float(np.einsum("nii->", factor.astype(np.float64))), factor.shape[0] * factor.shape[1]
    return float(np.trace(factor.astype(np.float64))), factor.shape[0]


def tikhonov_pi(factor_a: np.ndarray, factor_g: np.ndarray, eps: float = 1e-12) -> float:
    """Factor-trace π correction (Martens & Grosse 2015; torch-kfac's ``pi``).

    ``π = sqrt((tr(A)/dim_A) / (tr(G)/dim_G))`` balances the Tikhonov
    damping between the two Kronecker factors according to their relative
    scale.  Degenerate traces (zero, negative, non-finite) fall back to 1.0,
    which reduces to the uncorrected split.  Accepts factors in any packed
    representation (dense square, diagonal vector, block stack).
    """
    raw_a, dim_a = _packed_trace_and_dim(factor_a)
    raw_g, dim_g = _packed_trace_and_dim(factor_g)
    trace_a = raw_a / max(dim_a, 1)
    trace_g = raw_g / max(dim_g, 1)
    if not np.isfinite(trace_a) or not np.isfinite(trace_g) or trace_a <= eps or trace_g <= eps:
        return 1.0
    return float(np.sqrt(trace_a / trace_g))


def apply_eigenbasis_left(x: np.ndarray, eigen: EigenDecomposition, transpose: bool) -> np.ndarray:
    """``Qᵀ x`` (or ``Q x``) where ``Q`` may be dense, identity or block-diagonal.

    ``x`` has shape ``(g_dim, a_dim)`` and ``Q`` acts on the rows.  The
    identity basis (diagonal repr) is a no-op; a block stack multiplies each
    row block independently.
    """
    q = eigen.eigenvectors
    if q is None:
        return x
    if q.ndim == 2:
        q32 = q.astype(np.float32, copy=False)
        return (q32.T if transpose else q32) @ x
    num_blocks, bs, _ = q.shape
    q32 = q.astype(np.float32, copy=False)
    blocks = x.reshape(num_blocks, bs, x.shape[-1])
    operator = q32.transpose(0, 2, 1) if transpose else q32
    return np.matmul(operator, blocks).reshape(x.shape)


def apply_eigenbasis_right(x: np.ndarray, eigen: EigenDecomposition, transpose: bool) -> np.ndarray:
    """``x Q`` (or ``x Qᵀ``) where ``Q`` may be dense, identity or block-diagonal."""
    q = eigen.eigenvectors
    if q is None:
        return x
    if q.ndim == 2:
        q32 = q.astype(np.float32, copy=False)
        return x @ (q32.T if transpose else q32)
    num_blocks, bs, _ = q.shape
    q32 = q.astype(np.float32, copy=False)
    blocks = x.reshape(x.shape[0], num_blocks, bs)
    operator = q32.transpose(0, 2, 1) if transpose else q32
    return np.einsum("gnb,nbc->gnc", blocks, operator).reshape(x.shape)


def structured_precondition(
    grad: np.ndarray,
    eig_a: EigenDecomposition,
    eig_g: EigenDecomposition,
    damping: float,
    inverse_outer: Optional[np.ndarray] = None,
    pi: Optional[float] = None,
) -> np.ndarray:
    """Eqs. 15-17 for eigen decompositions in any structured representation.

    The shared fast path for non-dense eigenbases, used by every kernel
    backend (so backends agree bitwise on structured layers): identity bases
    skip their rotations entirely — when both factors are diagonal the whole
    contraction collapses to ``grad * inverse_outer`` — and block stacks
    rotate per block.  Dense-dense callers should use the historical
    :func:`precondition_with_eigen` path instead, which this function matches
    mathematically but not bitwise (different BLAS call shapes).
    """
    grad32 = grad.astype(np.float32, copy=False)
    if inverse_outer is None:
        inverse_outer = eigenvalue_outer_product(eig_a, eig_g, damping, pi=pi)
    outer32 = inverse_outer.astype(np.float32, copy=False)
    v1 = apply_eigenbasis_left(grad32, eig_g, transpose=True)  # Eq. 15
    v1 = apply_eigenbasis_right(v1, eig_a, transpose=False)
    v2 = v1 * outer32  # Eq. 16
    v3 = apply_eigenbasis_left(v2, eig_g, transpose=False)  # Eq. 17
    v3 = apply_eigenbasis_right(v3, eig_a, transpose=True)
    return v3.astype(grad.dtype, copy=False)


def precondition_with_eigen(
    grad: np.ndarray,
    eig_a: EigenDecomposition,
    eig_g: EigenDecomposition,
    damping: float,
    inverse_outer: Optional[np.ndarray] = None,
    pi: Optional[float] = None,
) -> np.ndarray:
    """Precondition a gradient matrix with the eigen decomposition path (Eqs. 15-17).

    Parameters
    ----------
    grad:
        Gradient matrix of shape ``(dim_G, dim_A)`` — for a Linear layer this
        is ``(out_features, in_features[+1])`` with the bias column folded in.
    eig_a, eig_g:
        Eigen decompositions of the ``A`` and ``G`` Kronecker factors.
    damping:
        Tikhonov damping ``γ``.
    inverse_outer:
        Optional cached ``1/(v_G v_Aᵀ + γ)``; recomputed if not provided.
    pi:
        Optional π correction applied if the outer product must be
        recomputed (a cached ``inverse_outer`` already embeds its π).
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


def damped_inverse(factor: np.ndarray, damping: float) -> np.ndarray:
    """Return ``(factor + γI)⁻¹`` (the inverse path, Eq. 12)."""
    n = factor.shape[0]
    damped = factor.astype(np.float64) + damping * np.eye(n)
    return np.linalg.inv(damped).astype(np.float32)


def precondition_with_inverse(grad: np.ndarray, inv_a: np.ndarray, inv_g: np.ndarray) -> np.ndarray:
    """Precondition with explicit inverses: ``G⁻¹ ∇L A⁻¹`` (Eq. 11)."""
    return (
        inv_g.astype(np.float32, copy=False)
        @ grad.astype(np.float32, copy=False)
        @ inv_a.astype(np.float32, copy=False)
    ).astype(grad.dtype, copy=False)


def kl_clip_scale(
    grads_and_precond: list[Tuple[np.ndarray, np.ndarray]], lr: float, kl_clip: float
) -> float:
    """Scale factor bounding the KL divergence of the preconditioned update.

    Following the standard distributed K-FAC implementations (Osawa 2019,
    Pauloski 2020), the preconditioned gradients are rescaled by
    ``nu = min(1, sqrt(kl_clip / (lr^2 * sum <precond, grad>)))`` so a large
    second-order step cannot blow up early training.
    """
    total = 0.0
    for grad, precond in grads_and_precond:
        total += float(
            np.sum(grad.astype(np.float64, copy=False) * precond.astype(np.float64, copy=False))
        )
    return kl_clip_scale_from_total(total, lr, kl_clip)


def kl_clip_scale_from_total(total: float, lr: float, kl_clip: float) -> float:
    """``nu`` from an already-accumulated ``sum <precond, grad>``.

    Split out of :func:`kl_clip_scale` so callers that need the raw inner
    product for other purposes (e.g. the adaptive damping controller's
    quadratic model) can accumulate it once and derive ``nu`` from it,
    bitwise-identically to the fused helper.
    """
    total = total * (lr * lr)
    if total <= 0.0:
        return 1.0
    return min(1.0, float(np.sqrt(kl_clip / total)))
