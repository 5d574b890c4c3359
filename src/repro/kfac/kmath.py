"""Numerical kernels for K-FAC preconditioning.

Implements the paper's equations:

* Eq. 9   — Kronecker factors ``A = a aᵀ`` and ``G = g gᵀ`` (built in
  :mod:`repro.kfac.layers`),
* Eq. 12  — damped inverse ``(F̂ + γI)⁻¹ ≈ (A + γ_a I)⁻¹ ⊗ (G + γ_g I)⁻¹``,
  the default solve path: each damped factor is inverted by a float32
  Cholesky (``?potrf`` then ``?potri``) on the rank that holds it, with the
  factored Tikhonov split ``γ_a = π√γ``, ``γ_g = √γ/π`` (Martens & Grosse
  2015, section 6.3; :func:`tikhonov_pi`), travelling as its packed triangle
  and held as one triangle of a buffer it shares with another inverse
  (:func:`hold_triangles`, :class:`TriangleView`), which ``?symm`` reads
  alone (:func:`symm_product`),
* Eqs. 15–17 — the eigen-decomposition preconditioning path of the paper,
  including the cached eigenvalue outer product that section 4.4 moves into
  the (infrequent) eigen-decomposition stage, damped with the same split:
  ``1/((v_G + √γ/π)(v_A + π√γ)ᵀ)``, π from the eigenvalues' traces.

Every solve path damps by :func:`split_damping` of one π
(:func:`tikhonov_pi` from the factors, :func:`eigenvalue_pi` from their
spectra), formed where the damping is applied.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

__all__ = [
    "EigenDecomposition",
    "eigh_solve_dtype",
    "symmetric_eigen",
    "expand_for_eigen",
    "eigen_of_expanded",
    "pack_triangle",
    "expand_triangle",
    "expand_symmetric",
    "triangle_dim",
    "as_packed_triangle",
    "eigenvalue_outer_product",
    "precondition_with_eigen",
    "structured_precondition",
    "apply_eigenbasis_left",
    "apply_eigenbasis_right",
    "precondition_with_inverse",
    "symm_product",
    "TriangleView",
    "pair_triangles",
    "triangle_buffer_shape",
    "hold_triangles",
    "expand_damped",
    "inverse_of_expanded",
    "kl_clip_scale",
    "kl_clip_scale_from_total",
    "split_damping",
    "tikhonov_pi",
    "eigenvalue_pi",
]


@dataclass
class EigenDecomposition:
    """Eigenvectors and eigenvalues of a symmetric Kronecker factor.

    ``eigenvalues`` is always the flat ``(n,)`` spectrum, block by block.
    ``eigenvectors`` is the factor's
    :attr:`~repro.kfac.factors.FactorRepr.eigenvector_shape`:

    * ``(n, n)`` — one block (a dense factor), columns are eigenvectors;
    * ``(k, b, b)`` — ``k`` blocks of ``b``: the per-block eigenbases;
    * ``None`` — blocks of one (a diagonal factor): the eigenbasis is the
      identity and is never materialised (the eigenvalues are the clamped
      diagonal, kept in coordinate order so they stay aligned with it).
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


def _bind(library, name: str, arguments: str):
    """Routine ``name`` of ``library`` (``cython_lapack`` / ``cython_blas``) as a ``ctypes`` function on SciPy's C pointer.

    ``scipy.linalg.cython_lapack.__pyx_capi__`` (and ``cython_blas``'s) holds
    one capsule per routine, named by its C signature, so that other
    extensions can call LAPACK and BLAS without linking them (the route numba
    takes).  A ``ctypes`` foreign call releases the interpreter lock for its
    duration, which SciPy's and NumPy's own wrappers do not: threaded ranks
    decompose their factors side by side.  ``arguments`` spells the signature
    one letter per argument -- ``c`` a character flag, ``i`` an integer passed
    by reference, ``r`` an array (or a scalar by reference) of the routine's
    real type, ``w`` an integer work array.  There is no fallback, so a SciPy
    whose capsule reads differently fails at import, naming both signatures.
    """
    module = library.__name__.rpartition(".")[2]
    scalar = f"__pyx_t_5scipy_6linalg_{len(module)}{module}_{name[0]}"
    c_types = {"c": "char *", "i": "int *", "r": f"{scalar} *", "w": "int *"}
    expected = "void (" + ", ".join(c_types[letter] for letter in arguments) + ")"
    capsule = library.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    if signature != expected.encode():
        raise ImportError(f"scipy.linalg.{module}.{name} has signature {signature!r}, expected {expected!r}")
    # Arrays go in as addresses; a by-reference integer is a ``c_int`` the call site keeps alive.
    ctypes_types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int), "r": ctypes.c_void_p, "w": ctypes.c_void_p}
    prototype = ctypes.CFUNCTYPE(None, *(ctypes_types[letter] for letter in arguments))
    return prototype(_capsule_pointer(capsule, signature))


def _bind_by_dtype(routine: str, arguments: str, library=cython_lapack) -> dict:
    """Solve dtype -> the single / double ``?routine`` of ``library``, bound once at import."""
    return {
        np.dtype(np.float32): _bind(library, "s" + routine, arguments),
        np.dtype(np.float64): _bind(library, "d" + routine, arguments),
    }


_SYEVD = _bind_by_dtype("syevd", "ccirirriwii")  # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
_TRTTP = _bind_by_dtype("trttp", "ciriri")  # uplo, n, a, lda, ap, info
_TPTTR = _bind_by_dtype("tpttr", "cirrii")  # uplo, n, ap, a, lda, info
_POTRF = _bind_by_dtype("potrf", "cirii")  # uplo, n, a, lda, info
_POTRI = _bind_by_dtype("potri", "cirii")  # uplo, n, a, lda, info
# side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc
_SYMM = _bind_by_dtype("symm", "cciirririrri", cython_blas)
#: ``(α, β) = (1, 0)`` of every ``?symm`` call, by dtype: kept as long as the module, passed by address.
_UNIT = {dtype: np.array([1, 0], dtype=dtype) for dtype in _SYMM}
_UNIT_ADDRESS = {dtype: (unit.ctypes.data, unit.ctypes.data + unit.itemsize) for dtype, unit in _UNIT.items()}


def _one_blas_thread() -> None:
    """Run the OpenBLAS behind SciPy's capsules on one thread; a SciPy on another BLAS is left as it is.

    NumPy and SciPy each link their own OpenBLAS, each with its own thread
    pool, and a pool's idle threads spin a while before they sleep.  Used
    every step by :func:`symm_product` beside NumPy's GEMMs, a second
    multi-threaded pool fights the first for the cores: a dim-513 × 128
    ``?symm`` alternating with a NumPy GEMM took 8.8 ms a pair against 1.5 ms
    with this pool on one thread (two cores), and the preconditioning of
    ``python -m repro.observability.smoke --world 4`` 119 against 11–14 ms a
    step.  K-FAC's parallelism is its ranks and their refresh workers, never
    a pool inside one call (README "Kernels"); with ``OPENBLAS_NUM_THREADS=1``
    there is no pool and nothing is called.
    """
    library = ctypes.CDLL(cython_blas.__file__)  # its symbols resolve through the BLAS it links
    for prefix in ("scipy_", ""):
        getter = getattr(library, f"{prefix}openblas_get_num_threads", None)
        # Only a pool to shrink: on one thread already, the setter would start OpenBLAS's thread server,
        # which halved `samples_per_s` on `bert_refresh_w1` under OPENBLAS_NUM_THREADS=1.
        if getter is not None:
            if getter() > 1:
                getattr(library, f"{prefix}openblas_set_num_threads")(1)
            return


_one_blas_thread()


def _address(array: np.ndarray) -> int:
    """The data address of a C-contiguous array, without building ``array.ctypes`` (a few microseconds a call)."""
    if array.flags.writeable and array.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


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


def pack_triangle(square: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The upper triangle of ``square``, row by row: ``n(n+1)/2`` elements, in ``square``'s dtype.

    The storage form, and the wire form, of one block of a symmetric factor.
    Row ``i`` contributes columns ``i..n-1``, which is exactly LAPACK's packed
    ``'L'`` format of the column-major matrix occupying the same memory, so
    this is one ``?trttp`` call (no index arrays, the interpreter lock
    released).  ``square`` is not modified; a float16 one goes through
    float32.  ``out``, a contiguous ``(n(n+1)/2,)`` array of ``square``'s
    float32 / float64 dtype, receives the triangle and is returned.
    """
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ValueError(f"factor must be square, got shape {square.shape}")
    n = square.shape[0]
    work = np.ascontiguousarray(square, dtype=_lapack_dtype(square.dtype))
    if out is None:
        out = np.empty(n * (n + 1) // 2, dtype=work.dtype)
    elif out.shape != (n * (n + 1) // 2,) or not out.dtype == square.dtype == work.dtype or not out.flags.c_contiguous:
        raise ValueError(f"cannot pack a {square.dtype} square of shape {square.shape} into this output")
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    _TRTTP[work.dtype](b"L", order, work.ctypes.data, order, out.ctypes.data, info)
    return out.astype(square.dtype, copy=False)


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


def expand_symmetric(packed: np.ndarray) -> np.ndarray:
    """The symmetric square whose packed triangle is ``packed``, in ``packed``'s dtype (C order).

    ``?tpttr`` fills the upper triangle of a zeroed square, and the square is
    that ``upperᵀ + upper`` with the diagonal put back: an off-diagonal entry
    is its triangle's entry plus an exact zero (so ``-0.0`` becomes ``+0.0``)
    and the diagonal is kept as it is, so an expanded square is bitwise
    ``expand_symmetric(pack_triangle(square))``.  The transposed copy comes
    first so the add runs on two C-order operands.  A float16 triangle goes
    through float32.
    """
    n, work_dtype = triangle_dim(packed.size), _lapack_dtype(packed.dtype)
    upper = expand_triangle(packed.astype(work_dtype, copy=False), np.zeros((n, n), work_dtype))
    square = upper.T.copy()  # C order
    square += upper
    np.einsum("ii->i", square)[...] = np.einsum("ii->i", upper)  # the sum counted the diagonal twice
    return square.astype(packed.dtype, copy=False)


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
    solves what it expanded and reads nothing else.

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
) -> np.ndarray:
    """Precompute ``1 / ((v_G + √γ/π)(v_A + π√γ)ᵀ)``, Eq. 16's damped spectrum (paper section 4.4).

    The result has shape ``(dim_G, dim_A)`` and only changes when the eigen
    decompositions are updated, so computing it once per K-FAC update removes
    redundant work from every per-iteration preconditioning call.  It is a
    function of the eigenvalues alone -- the damping splits per factor by
    :func:`split_damping` with π from their traces (:func:`eigenvalue_pi`) --
    so each rank that holds the decompositions forms its own and it never
    travels.
    """
    v_g = eig_g.eigenvalues.astype(np.float64)
    v_a = eig_a.eigenvalues.astype(np.float64)
    damping_a, damping_g = split_damping(damping, eigenvalue_pi(eig_a, eig_g))
    return (1.0 / np.outer(v_g + damping_g, v_a + damping_a)).astype(dtype)


def split_damping(damping: float, pi: float) -> Tuple[float, float]:
    """Per-factor Tikhonov damping ``(γ_a, γ_g) = (π√γ, √γ/π)`` (Martens & Grosse 2015, section 6.3).

    The split keeps the product of the damped spectra scaling like ``γ``
    while respecting the factors' relative trace magnitudes (:func:`tikhonov_pi`).
    """
    root = float(np.sqrt(damping))
    pi = float(pi)
    return pi * root, root / pi


def _trace_ratio_pi(mean_a: float, mean_g: float, eps: float = 1e-12) -> float:
    """``sqrt(mean_a / mean_g)`` of two mean diagonal entries; 1.0 if either is zero, negative or not finite."""
    if not np.isfinite(mean_a) or not np.isfinite(mean_g) or mean_a <= eps or mean_g <= eps:
        return 1.0
    return float(np.sqrt(mean_a / mean_g))


def tikhonov_pi(factor_a: np.ndarray, factor_g: np.ndarray, a_repr, g_repr) -> float:
    """Factor-trace π correction (Martens & Grosse 2015; torch-kfac's ``pi``).

    ``π = sqrt((tr(A)/dim_A) / (tr(G)/dim_G))`` balances the Tikhonov
    damping between the two Kronecker factors according to their relative
    scale.  Degenerate traces (zero, negative, non-finite) fall back to 1.0,
    the even split ``(√γ, √γ)``.  The factors come in their stored
    form and ``a_repr`` / ``g_repr`` (their
    :class:`~repro.kfac.factors.FactorRepr`) say where in the packed blocks
    the diagonal sits.
    """
    return _trace_ratio_pi(a_repr.trace(factor_a) / max(a_repr.dim, 1), g_repr.trace(factor_g) / max(g_repr.dim, 1))


def eigenvalue_pi(eig_a: EigenDecomposition, eig_g: EigenDecomposition) -> float:
    """:func:`tikhonov_pi` from the spectra: ``tr(A) = Σλ_A`` over the factor's blocks; an eigen holder needs no factor."""
    means = [np.sum(eig.eigenvalues.astype(np.float64)) / max(eig.eigenvalues.size, 1) for eig in (eig_a, eig_g)]
    return _trace_ratio_pi(*means)


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
        inverse_outer = eigenvalue_outer_product(eig_a, eig_g, damping)
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
        Optional cached :func:`eigenvalue_outer_product`; recomputed if not provided.
    """
    if eig_a.is_structured or eig_g.is_structured:
        return structured_precondition(grad, eig_a, eig_g, damping, inverse_outer)
    q_a = eig_a.eigenvectors.astype(np.float32, copy=False)
    q_g = eig_g.eigenvectors.astype(np.float32, copy=False)
    grad32 = grad.astype(np.float32, copy=False)
    v1 = q_g.T @ grad32 @ q_a  # Eq. 15
    if inverse_outer is None:
        inverse_outer = eigenvalue_outer_product(eig_a, eig_g, damping)
    v2 = v1 * inverse_outer.astype(np.float32, copy=False)  # Eq. 16
    return (q_g @ v2 @ q_a.T).astype(grad.dtype, copy=False)  # Eq. 17


def expand_damped(factor: np.ndarray, damping: float, solve_dtype=np.float32) -> np.ndarray:
    """The read half of a damped inverse (Eq. 12): :func:`expand_for_eigen`, then ``γ`` added to the diagonal.

    ``factor`` is a dense factor's packed triangle, or a square whose upper
    triangle is read; :func:`inverse_of_expanded` solves what this returns.
    """
    square = expand_for_eigen(factor, solve_dtype)
    np.einsum("ii->i", square)[...] += damping
    return square


def inverse_of_expanded(square: np.ndarray) -> np.ndarray:
    """The solve half of a damped inverse: ``?potrf`` and ``?potri`` on ``square``, then ``?trttp``.

    ``square`` is a buffer :func:`expand_damped` returned: column-major,
    lower triangle filled, zeros above it.  It is overwritten, and the
    inverse's triangle is returned packed (``?trttp``, LAPACK's ``'L'``:
    row-major, the upper triangle row by row, :func:`pack_triangle`'s form),
    the form every holder installs (:meth:`TriangleView.install`) and the
    eigen round carries.  All three run without the interpreter lock.  A
    damped factor that is not positive definite (``?potrf``), or whose
    Cholesky factor is singular (``?potri``), raises
    ``np.linalg.LinAlgError`` naming the dimension and LAPACK's ``info``.
    """
    n, dtype = square.shape[0], square.dtype
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    for routine, what in ((_POTRF, "is not positive definite"), (_POTRI, "has a singular Cholesky factor")):
        routine[dtype](b"L", order, square.ctypes.data, order, info)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"the damped factor of dimension {n} {what}: info={info.value}")
    packed = np.empty(n * (n + 1) // 2, dtype=dtype)
    _TRTTP[dtype](b"L", order, square.ctypes.data, order, packed.ctypes.data, info)
    return packed


class TriangleView:
    """A symmetric ``n × n`` matrix held as one triangle of a row-major buffer it may share: a held damped inverse.

    ``buffer`` is a C-contiguous 2-D float array and the matrix is its
    ``n × n`` window from ``(row, col)``: row-major, its upper triangle is
    held, or its lower one when ``lower``.  The rest of the window belongs to
    a partner (:func:`hold_triangles`) and is never read or written.  There is
    no square to read: :meth:`install` writes the packed triangle,
    :meth:`packed` reads it back and :func:`symm_product` multiplies by the
    matrix with one ``?symm`` call, which reads this triangle alone.
    ``nbytes`` is the view's share of the buffer: its triangle beside a
    partner, the whole square alone.
    """

    __slots__ = ("buffer", "row", "col", "dim", "lower", "nbytes", "_window", "_address", "_uplo", "_n", "_ld", "_calls")

    def __init__(self, buffer: np.ndarray, row: int, col: int, dim: int, lower: bool, share: int) -> None:
        window = buffer[row : row + dim, col : col + dim]
        if not buffer.flags.c_contiguous or buffer.ndim != 2 or window.shape != (dim, dim):
            raise ValueError(f"a triangle of dimension {dim} at ({row}, {col}) is not inside a buffer of {buffer.shape}")
        self.buffer, self.row, self.col, self.dim, self.lower = buffer, row, col, dim, lower
        self.nbytes = share * buffer.itemsize
        self._window, self._address = window, window.ctypes.data
        # Column-major, as BLAS reads the memory, the row-major upper triangle is the lower one.
        self._uplo = b"U" if lower else b"L"
        self._n, self._ld = ctypes.c_int(dim), ctypes.c_int(buffer.shape[1])
        self._calls: dict = {}  # (side, operand shape, dtype) -> its checked ``?symm`` arguments (_prepare_symm)

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.dtype

    def install(self, packed: np.ndarray) -> None:
        """Write ``packed`` (:func:`pack_triangle`'s form, cast to the view's dtype) into the held triangle.

        An upper triangle takes it with one ``?tpttr``.  A lower one, whose
        rows run the other way, takes the transpose of the upper triangle
        ``?tpttr`` fills in a scratch square, a block of rows at a time
        (:func:`_copy_triangle`); so does a float16 one, through float32.
        """
        n = self.dim
        if np.shape(packed) != (n * (n + 1) // 2,):
            raise ValueError(f"a packed triangle of shape {np.shape(packed)} is not one of dimension {n}")
        work = _lapack_dtype(self.dtype)
        packed = np.ascontiguousarray(packed, dtype=work)
        if not self.lower and work == self.dtype:
            _TPTTR[work](b"L", self._n, packed.ctypes.data, self._address, self._ld, ctypes.c_int(0))
            return
        upper = expand_triangle(packed, np.empty((n, n), dtype=work))
        _copy_triangle(upper.T if self.lower else upper, self._window, self.lower)

    def packed(self) -> np.ndarray:
        """The held triangle as :meth:`install` takes it, in a fresh array: the inverse's checkpoint form."""
        n, work = self.dim, _lapack_dtype(self.dtype)
        if not self.lower and work == self.dtype:
            out = np.empty(n * (n + 1) // 2, dtype=work)
            _TRTTP[work](b"L", self._n, self._address, self._ld, out.ctypes.data, ctypes.c_int(0))
            return out
        upper = np.empty((n, n), dtype=work)
        _copy_triangle(self._window, upper.T if self.lower else upper, self.lower)
        return pack_triangle(upper).astype(self.dtype, copy=False)

    def astype(self, dtype) -> "TriangleView":
        """This view in ``dtype``: itself, or the same triangle of a converted copy of the buffer."""
        if self.buffer.dtype == dtype:
            return self
        share = self.nbytes // self.buffer.itemsize
        return TriangleView(self.buffer.astype(dtype), self.row, self.col, self.dim, self.lower, share)


#: Rows per block of :func:`_copy_triangle`, and the masks of its diagonal blocks.
_BLOCK = 128
_DIAGONAL_BLOCK = {lower: (np.tril if lower else np.triu)(np.ones((_BLOCK, _BLOCK), dtype=bool)) for lower in (False, True)}


def _copy_triangle(source: np.ndarray, target: np.ndarray, lower: bool) -> None:
    """Copy the row-major lower (or upper) triangle of ``source`` into ``target``'s, :data:`_BLOCK` rows at a time.

    Nothing else of ``target`` is written.  Either may be a transposed view:
    the off-diagonal part of a block of rows is one rectangular copy, and
    only its diagonal block is masked (0.17–0.24 ms at n = 512, against
    0.7 ms for one indexed assignment of the triangle).
    """
    n = source.shape[0]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        rows, beside = slice(start, stop), slice(0, start) if lower else slice(stop, n)
        target[rows, beside] = source[rows, beside]
        mask = _DIAGONAL_BLOCK[lower][: stop - start, : stop - start]
        np.copyto(target[rows, rows], source[rows, rows], where=mask)


def pair_triangles(dims: Sequence[int]) -> List[Tuple[int, ...]]:
    """Which of the symmetric matrices of dimensions ``dims`` share a buffer: groups of their indices, larger first.

    The one pairing rule of held inverses.  Taken largest first (equal
    dimensions in order), each matrix is paired with the next when their
    dimensions differ by at most one; one without such a neighbour is alone.
    Two of ``n`` then fill ``(n+1)·n`` elements instead of ``2n²``, and ``n+1``
    beside ``n`` fill ``(n+1)²`` instead of ``(n+1)² + n²``
    (:func:`triangle_buffer_shape`); pairing the largest first saves the most.
    """
    order = sorted(range(len(dims)), key=lambda index: (-dims[index], index))
    groups: List[Tuple[int, ...]] = []
    while order:
        first = order.pop(0)
        groups.append((first, order.pop(0)) if order and dims[first] - dims[order[0]] <= 1 else (first,))
    return groups


def triangle_buffer_shape(dims: Sequence[int]) -> Tuple[int, int]:
    """The row-major buffer a group of :func:`pair_triangles` shares: ``(n, n)`` alone, ``(n+1, max)`` for a pair of min ``n``."""
    n = min(dims)
    return (n, n) if len(dims) == 1 else (n + 1, max(dims))


def hold_triangles(dims: Sequence[int], dtype) -> List[TriangleView]:
    """One :class:`TriangleView` per dimension of ``dims``, in zeroed buffers shared as :func:`pair_triangles` says.

    Two of ``n`` share an ``(n+1) × n`` buffer: the first is the upper
    triangle of its top ``n`` rows, the second the lower triangle of its
    bottom ``n``.  ``n+1`` and ``n`` share an ``(n+1)²`` one: the ``n+1`` is
    its lower triangle, the ``n`` the upper triangle of its top ``n`` rows
    from the second column on.  One alone keeps an ``n × n`` square.
    """
    views: List[Optional[TriangleView]] = [None] * len(dims)
    for group in pair_triangles(dims):
        shape = triangle_buffer_shape([dims[index] for index in group])
        buffer = np.zeros(shape, dtype=dtype)
        if len(group) == 1:
            n = shape[0]
            views[group[0]] = TriangleView(buffer, 0, 0, n, False, n * n)
            continue
        (larger, smaller), n = group, shape[0] - 1
        if dims[larger] == n:
            views[larger] = TriangleView(buffer, 0, 0, n, False, n * (n + 1) // 2)
            views[smaller] = TriangleView(buffer, 1, 0, n, True, n * (n + 1) // 2)
        else:
            views[larger] = TriangleView(buffer, 0, 0, n + 1, True, (n + 1) * (n + 2) // 2)
            views[smaller] = TriangleView(buffer, 0, 1, n, False, n * (n + 1) // 2)
    return views


def symm_product(triangle: TriangleView, x: np.ndarray, side: str, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``S @ x`` (``side="left"``) or ``x @ S`` (``"right"``) for the ``S`` ``triangle`` holds: one ``?symm`` call.

    ``x`` is 2-D in the view's dtype (float32 or float64) and is read
    C-contiguous; ``out``, a C-contiguous array of its shape and dtype that
    does not overlap it, receives the product (a fresh array if None).  BLAS
    sees the row-major ``x`` as ``xᵀ``, so ``S @ x`` is side ``'R'``
    (``xᵀ S``) and ``x @ S`` side ``'L'``; only the view's triangle is read,
    and the call runs without the interpreter lock.
    """
    x = np.ascontiguousarray(x)
    call = triangle._calls.get((side, x.shape, x.dtype)) or _prepare_symm(triangle, x, side)
    routine, flag, uplo, m, n, alpha, address, ld, beta, width = call
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    routine(flag, uplo, m, n, alpha, address, ld, _address(x), width, beta, _address(out), width)
    return out


def _prepare_symm(triangle: TriangleView, x: np.ndarray, side: str) -> tuple:
    """Check ``x`` against ``triangle`` once and keep the ``?symm`` arguments that hold while its shape does.

    Everything but the operands' addresses: the view's buffer never moves.
    """
    dtype, (rows, columns) = x.dtype, x.shape
    if triangle.dtype != dtype or dtype not in _SYMM:
        raise TypeError(f"?symm multiplies float32 or float64 operands of one dtype, got {triangle.dtype} and {dtype}")
    if (rows if side == "left" else columns) != triangle.dim:
        raise ValueError(f"cannot multiply a symmetric matrix of dimension {triangle.dim} by an array of {x.shape}")
    (alpha, beta), flag = _UNIT_ADDRESS[dtype], b"R" if side == "left" else b"L"
    m, n, width = ctypes.c_int(columns), ctypes.c_int(rows), ctypes.c_int(max(columns, 1))
    call = (_SYMM[dtype], flag, triangle._uplo, m, n, alpha, triangle._address, triangle._ld, beta, width)
    triangle._calls[side, x.shape, dtype] = call
    return call


def precondition_with_inverse(grad: np.ndarray, inv_a, inv_g) -> np.ndarray:
    """Precondition with explicit damped inverses: ``G⁻¹ ∇L A⁻¹`` (Eq. 11), in float32.

    Each inverse comes in the form a holder installs it: a
    :class:`TriangleView` for a dense factor (one ``?symm`` per side), the
    ``(n,)`` reciprocal diagonal ``1 / (d + γ)`` of a diagonal one (a scaling
    of rows or columns), ``(k, b, b)`` for ``k`` blocks (applied block by
    block, like :func:`apply_eigenbasis_left` / :func:`apply_eigenbasis_right`).
    """
    out = _apply_inverse_left(grad.astype(np.float32, copy=False), inv_g)
    return _apply_inverse_right(out, inv_a).astype(grad.dtype, copy=False)


def _apply_inverse_left(x: np.ndarray, inverse) -> np.ndarray:
    """``G⁻¹ x`` for an installed inverse of any form (see :func:`precondition_with_inverse`)."""
    if isinstance(inverse, TriangleView):
        return symm_product(inverse.astype(np.float32), x, "left")
    inverse = inverse.astype(np.float32, copy=False)
    if inverse.ndim == 1:
        return inverse[:, None] * x
    blocks = x.reshape(inverse.shape[0], inverse.shape[1], x.shape[-1])
    return np.matmul(inverse, blocks).reshape(x.shape)


def _apply_inverse_right(x: np.ndarray, inverse) -> np.ndarray:
    """``x A⁻¹`` for an installed inverse of any form (see :func:`precondition_with_inverse`)."""
    if isinstance(inverse, TriangleView):
        return symm_product(inverse.astype(np.float32), x, "right")
    inverse = inverse.astype(np.float32, copy=False)
    if inverse.ndim == 1:
        return x * inverse
    blocks = x.reshape(x.shape[0], inverse.shape[0], inverse.shape[1])
    return np.einsum("gnb,nbc->gnc", blocks, inverse).reshape(x.shape)


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
