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
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cython_lapack

__all__ = [
    "EigenDecomposition",
    "eigh_solve_dtype",
    "symmetric_eigen",
    "expand_for_eigen",
    "eigen_of_expanded",
    "pack_triangle",
    "expand_triangle",
    "triangle_dim",
    "as_packed_triangle",
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


def _bind_lapack(name: str, arguments: str):
    """LAPACK routine ``name`` as a ``ctypes`` function on the C pointer SciPy publishes for it.

    ``scipy.linalg.cython_lapack.__pyx_capi__`` holds one capsule per routine,
    named by its C signature, so that other extensions can call LAPACK without
    linking it (the route numba takes).  A ``ctypes`` foreign call releases the
    interpreter lock for its duration, which SciPy's and NumPy's own wrappers
    do not: threaded ranks decompose their factors side by side.
    ``arguments`` spells the signature one letter per argument -- ``c`` a
    character flag, ``i`` an integer passed by reference, ``r`` an array of the
    routine's real type, ``w`` an integer work array.  There is no fallback,
    so a SciPy whose capsule reads differently fails at import, naming both
    signatures.
    """
    scalar = f"__pyx_t_5scipy_6linalg_13cython_lapack_{name[0]}"
    c_types = {"c": "char *", "i": "int *", "r": f"{scalar} *", "w": "int *"}
    expected = "void (" + ", ".join(c_types[letter] for letter in arguments) + ")"
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    if signature != expected.encode():
        raise ImportError(f"scipy.linalg.cython_lapack.{name} has signature {signature!r}, expected {expected!r}")
    # Arrays go in as addresses; a by-reference integer is a ``c_int`` the call site keeps alive.
    ctypes_types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int), "r": ctypes.c_void_p, "w": ctypes.c_void_p}
    prototype = ctypes.CFUNCTYPE(None, *(ctypes_types[letter] for letter in arguments))
    return prototype(_capsule_pointer(capsule, signature))


def _bind_by_dtype(routine: str, arguments: str) -> dict:
    """Solve dtype -> the single / double LAPACK ``?routine``, bound once at import."""
    return {
        np.dtype(np.float32): _bind_lapack("s" + routine, arguments),
        np.dtype(np.float64): _bind_lapack("d" + routine, arguments),
    }


_SYEVD = _bind_by_dtype("syevd", "ccirirriwii")  # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
_TRTTP = _bind_by_dtype("trttp", "ciriri")  # uplo, n, a, lda, ap, info
_TPTTR = _bind_by_dtype("tpttr", "cirrii")  # uplo, n, ap, a, lda, info


def triangle_dim(numel: int) -> int:
    """The ``n`` whose packed triangle has ``numel = n(n+1)/2`` elements; ``ValueError`` if there is none."""
    n = (math.isqrt(8 * int(numel) + 1) - 1) // 2
    if n < 1 or n * (n + 1) // 2 != numel:
        raise ValueError(f"{numel} elements are not the packed triangle of a square matrix")
    return n


def _lapack_dtype(dtype) -> np.dtype:
    """The dtype LAPACK moves ``dtype`` data in: itself for single / double, single for a narrower float."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise TypeError(f"a packed triangle holds floating-point data, got {dtype}")
    return np.promote_types(dtype, np.float32)


def pack_triangle(square: np.ndarray) -> np.ndarray:
    """The upper triangle of ``square``, row by row: ``n(n+1)/2`` elements, in ``square``'s dtype.

    The storage form, and the wire form, of a dense symmetric factor.  Row
    ``i`` contributes columns ``i..n-1``, which is exactly LAPACK's packed
    ``'L'`` format of the column-major matrix occupying the same memory, so
    this is one ``?trttp`` call (no index arrays, the interpreter lock
    released).  ``square`` is not modified; a float16 one goes through float32.
    """
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ValueError(f"factor must be square, got shape {square.shape}")
    n = square.shape[0]
    work = np.ascontiguousarray(square, dtype=_lapack_dtype(square.dtype))
    packed = np.empty(n * (n + 1) // 2, dtype=work.dtype)
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    _TRTTP[work.dtype](b"L", order, work.ctypes.data, order, packed.ctypes.data, info)
    return packed.astype(square.dtype, copy=False)


def expand_triangle(packed: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the packed triangle into ``out``'s memory with ``?tpttr``; returns ``out``.

    ``out`` is a contiguous ``(n, n)`` array of ``packed``'s dtype (float32 or
    float64).  Column-major, its *lower* triangle is filled -- what ``?syevd``
    reads under ``UPLO='L'``; row-major, its *upper* triangle (the same
    memory).  The other triangle is left as it was.
    """
    n = out.shape[0]
    if out.shape != (n, n) or packed.shape != (n * (n + 1) // 2,):
        raise ValueError(f"cannot expand a packed triangle of shape {packed.shape} into an array of shape {out.shape}")
    if packed.dtype != out.dtype or out.dtype not in _TPTTR:
        raise TypeError(f"packed triangle ({packed.dtype}) and output ({out.dtype}) must share float32 or float64")
    if not (out.flags.c_contiguous or out.flags.f_contiguous) or not out.flags.writeable:
        raise ValueError("the output of expand_triangle must be contiguous and writable")
    packed = np.ascontiguousarray(packed)
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    _TPTTR[out.dtype](b"L", order, packed.ctypes.data, out.ctypes.data, order, info)
    return out


def as_packed_triangle(factor: np.ndarray) -> np.ndarray:
    """``factor`` as the packed triangle of a dense symmetric matrix: 1-D is taken as one, a square is packed."""
    if factor.ndim == 1:
        triangle_dim(factor.shape[0])
        return factor
    return pack_triangle(factor)


def symmetric_eigen(
    factor: np.ndarray,
    compute_dtype=np.float32,
    clamp_negative: bool = True,
    eigh_dtype=None,
) -> EigenDecomposition:
    """Eigen-decompose a symmetric Kronecker factor given as its packed triangle.

    ``factor`` is the 1-D packed triangle a dense
    :class:`~repro.kfac.factors.FactorRepr` stores (:func:`pack_triangle`); a
    square matrix is accepted too and packed on entry, so both inputs take the
    one solve path and only the upper triangle of a square is ever read.

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
    interpreter lock (:func:`_bind_lapack`); this is the only place that calls
    it.  The triangle is expanded with ``?tpttr`` straight into the
    column-major buffer ``syevd`` overwrites with the eigenvectors: one stored
    triangle is symmetric by construction, so there is no symmetrise pass.
    The input is not modified.  The two halves are public:
    :func:`expand_for_eigen` reads the factor, :func:`eigen_of_expanded`
    solves what it expanded and reads nothing else, so the solve may run on
    another thread while the factor is updated in place.

    Raises ``ValueError`` for a factor with non-finite entries and
    ``np.linalg.LinAlgError`` when LAPACK reports ``info != 0``, both naming
    the dimension.
    """
    compute_dtype = np.dtype(compute_dtype)
    expanded = expand_for_eigen(factor, eigh_solve_dtype(compute_dtype, eigh_dtype))
    return eigen_of_expanded(expanded, compute_dtype, clamp_negative)


def expand_for_eigen(factor: np.ndarray, solve_dtype) -> np.ndarray:
    """The read half of :func:`symmetric_eigen`: ``factor``'s triangle in a private buffer ``syevd`` will overwrite.

    Checks ``factor`` (a packed triangle, or a square whose upper triangle
    is read) is finite and expands it with ``?tpttr`` into a fresh
    column-major ``(n, n)`` array of ``solve_dtype``, lower triangle filled.
    """
    solve_dtype = np.dtype(solve_dtype)
    if solve_dtype not in _SYEVD:
        raise TypeError(f"eigen solve dtype must be float32 or float64, got {solve_dtype}")
    n = factor.shape[0] if factor.ndim == 2 else triangle_dim(factor.size)
    if 1 + 6 * n + 2 * n * n > np.iinfo(np.intc).max:
        raise ValueError(f"factor of dimension {n} needs a workspace beyond LAPACK's 32-bit sizes")
    work = as_packed_triangle(factor).astype(solve_dtype, copy=False)
    if not np.isfinite(work).all():
        raise ValueError(f"factor of dimension {n} contains infs or NaNs")
    # ``syevd`` uses the lower triangle only; the rest starts as zeros rather than uninitialised,
    # because BLAS kernels still load it (and a stray signalling NaN would trip the FP-invalid flag).
    return expand_triangle(work, np.zeros((n, n), dtype=solve_dtype, order="F"))


def eigen_of_expanded(eigenvectors: np.ndarray, compute_dtype=np.float32, clamp_negative: bool = True) -> EigenDecomposition:
    """The solve half of :func:`symmetric_eigen`: ``syevd`` on a buffer :func:`expand_for_eigen` returned.

    The buffer is overwritten with the eigenvectors; nothing else is read.
    """
    n, solve_dtype = eigenvectors.shape[0], eigenvectors.dtype
    lwork, liwork = 1 + 6 * n + 2 * n * n, 3 + 5 * n
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


def tikhonov_pi(factor_a: np.ndarray, factor_g: np.ndarray, a_repr, g_repr, eps: float = 1e-12) -> float:
    """Factor-trace π correction (Martens & Grosse 2015; torch-kfac's ``pi``).

    ``π = sqrt((tr(A)/dim_A) / (tr(G)/dim_G))`` balances the Tikhonov
    damping between the two Kronecker factors according to their relative
    scale.  Degenerate traces (zero, negative, non-finite) fall back to 1.0,
    which reduces to the uncorrected split.  The factors come in their stored
    form and ``a_repr`` / ``g_repr`` (their
    :class:`~repro.kfac.factors.FactorRepr`) say which that is: a 1-D array is
    a diagonal or the packed triangle of a dense factor, and only the repr
    knows where its diagonal sits.
    """
    trace_a = a_repr.trace(factor_a) / max(a_repr.dim, 1)
    trace_g = g_repr.trace(factor_g) / max(g_repr.dim, 1)
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
