"""Per-layer solve strategies: damped inverse, eigen, warm-started CG.

KAISA's paper path eigen-decomposes both Kronecker factors -- O(F³) work that
pays off when the decomposition is reused over many steps and many
gradients.  Three strategies sit behind one interface, each the one home of
the second-order state its path keeps on a layer's gradient workers:

* :class:`InverseSolveStrategy` -- the default: the layer's decomposer
  inverts ``(A + π√γ I)`` and ``(G + √γ/π I)`` by Cholesky once per
  second-order refresh (Eq. 12 with factored Tikhonov damping), ships each
  inverse in its factor's packed form, and every gradient worker holds a
  dense one as one triangle, two inverses to a square
  (:func:`~repro.kfac.kmath.hold_triangles`), and preconditions with one
  ``?symm`` per side;
* :class:`EigenSolveStrategy` -- the eigen path of Eqs. 15-17, damped by
  the same split with π from the eigenvalues the holder received;
* :class:`CGSolveStrategy` -- never factorize at all: solve
  ``(G + γ_g I) X (A + γ_a I) = ∇L`` by conjugate gradients on the
  Kronecker-structured operator, warm-started from the previous solution
  (gradients change slowly between steps, so a handful of iterations
  suffice).

``KFACConfig.solve_strategy`` / ``small_layer_solver`` name one of the three
(:func:`solve_strategy_class`), the distribution plan carries each layer's
class (``plan.solvers``) and each rank builds its instance ``from_config``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..factors import FactorRepr
from ..kmath import (
    EigenDecomposition,
    TriangleView,
    eigenvalue_outer_product,
    hold_triangles,
    pack_triangle,
    pair_triangles,
    split_damping,
    tikhonov_pi,
    triangle_buffer_shape,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..config import KFACConfig
    from ..layers import KFACLayer
    from ..strategy import LayerShapeInfo, WirePolicy

__all__ = [
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "CGSolveStrategy",
    "solve_strategy_class",
    "available_solve_strategies",
    "kronecker_cg",
    "pack_eigen",
    "unpack_eigen_repr",
]


def available_solve_strategies() -> List[str]:
    """Sorted names of the solve strategies."""
    return sorted(_SOLVERS)


def solve_strategy_class(name: str) -> type:
    """The :class:`SolveStrategy` subclass named ``name``."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solve strategy {name!r}; available: {available_solve_strategies()}"
        ) from None


def pack_eigen(eigen: EigenDecomposition, dtype=np.float32) -> np.ndarray:
    """Pack an eigen decomposition into one flat buffer in ``dtype``: the eigen path's wire form.

    The buffer is the eigenvalues followed by the stored eigenvectors:
    ``n + k·b²`` elements (an eigenbasis is not symmetric, so its blocks stay
    square; ``n + n²`` for a dense factor), and ``n`` for a diagonal one (the
    identity eigenbasis is implicit and never hits the wire).
    """
    parts = [eigen.eigenvalues.astype(dtype).reshape(-1)]
    if eigen.eigenvectors is not None:
        parts.append(eigen.eigenvectors.astype(dtype).reshape(-1))
    return np.concatenate(parts)


def unpack_eigen_repr(packed: np.ndarray, repr: FactorRepr, dtype=np.float32) -> EigenDecomposition:
    """Inverse of :func:`pack_eigen` for a factor in representation ``repr``."""
    expected = repr.packed_eigen_numel
    if packed.size != expected:
        raise ValueError(
            f"packed eigen buffer has {packed.size} elements, expected {expected} for {repr.describe()}"
        )
    eigenvalues, shape = packed[: repr.dim].astype(dtype), repr.eigenvector_shape
    eigenvectors = None if shape is None else packed[repr.dim :].reshape(shape).astype(dtype)
    return EigenDecomposition(eigenvectors=eigenvectors, eigenvalues=eigenvalues)


def kronecker_cg(
    factor_a: np.ndarray,
    factor_g: np.ndarray,
    rhs: np.ndarray,
    damping_a: float,
    damping_g: float,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> Tuple[np.ndarray, int]:
    """Solve ``(G + γ_g I) X (A + γ_a I) = rhs`` by conjugate gradients.

    The operator is the Kronecker product of two symmetric positive
    (semi-)definite matrices plus damping, hence SPD under the Frobenius
    inner product — plain CG applies, with each operator application costing
    two small matmuls instead of ever forming or factorizing the Kronecker
    product.  ``factor_a`` / ``factor_g`` are square matrices
    (:meth:`FactorRepr.to_dense` of the stored form).  Runs in float64;
    returns ``(solution, iterations)``.
    """
    a64 = factor_a.astype(np.float64)
    g64 = factor_g.astype(np.float64)
    a64 = a64 + float(damping_a) * np.eye(a64.shape[0])
    g64 = g64 + float(damping_g) * np.eye(g64.shape[0])
    b = rhs.astype(np.float64)

    def apply(x: np.ndarray) -> np.ndarray:
        return g64 @ x @ a64

    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64, copy=True)
    r = b - apply(x)
    p = r.copy()
    rs = float(np.vdot(r, r))
    threshold = float(tol) * max(float(np.linalg.norm(b)), np.finfo(np.float64).tiny)
    iterations = 0
    for _ in range(int(max_iter)):
        if np.sqrt(rs) <= threshold:
            break
        ap = apply(p)
        denom = float(np.vdot(p, ap))
        if denom <= 0.0 or not np.isfinite(denom):
            break  # round-off broke positive-definiteness; keep the best iterate
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.vdot(r, r))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iterations += 1
    return x, iterations


class SolveStrategy:
    """How one layer's gradient is preconditioned, and the one home of the state that takes.

    ``solve`` runs on the layer's gradient workers every iteration and
    returns the preconditioned gradient matrix.  Whatever a strategy holds
    lives on those gradient workers and nowhere else, so one rule places,
    prices and checkpoints it on every path: :meth:`state_bytes` of the layers
    a gradient worker holds (per rank, by ``DistributionPlan.state_bytes_per_rank``),
    :meth:`held_bytes` as measured, :meth:`state_dict` /
    :meth:`load_state_dict` under the checkpoint's ``"solvers"``.  A strategy
    with a ``refresh`` also installs factor ``which``'s result on its
    decomposer (``install(which, result, layer)``) and ships it to the other
    gradient workers: ``wire_shape(repr_)``, ``pack(which, layer)`` on the
    source, ``receive(which, packed, layer)`` on every member.
    """

    name: str = "?"
    #: What a second-order refresh computes for the layer on its decomposer:
    #: ``"eigen"`` (the decompositions of Eqs. 15-17), ``"inverse"`` (the
    #: damped inverses of Eq. 12) or None (nothing: the strategy reads the
    #: running factors itself).  Read off the class by
    #: :meth:`~repro.kfac.KFACConfig.distribution_plan` alone: a layer whose
    #: refresh computes nothing has no decomposers and no eigen round.
    refresh: Optional[str] = None
    #: Whether the refresh reads both of a layer's factors on one rank (π from both traces): the plan pairs them.
    pairs_factors: bool = False
    #: The :meth:`KFAC.memory_usage` key (and :class:`~repro.memory.MemoryBreakdown` category) the state counts under.
    memory_key: str = "solver"

    @classmethod
    def from_config(cls, config: "KFACConfig") -> "SolveStrategy":
        """The strategy with the hyperparameters of ``config`` it reads."""
        return cls()

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        """Precondition ``grad``, the layer's current bias-folded gradient matrix (:meth:`KFACLayer.get_gradient`)."""
        raise NotImplementedError

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], policy: "WirePolicy") -> int:
        """Bytes a gradient worker of all of ``layers`` (each solved by this strategy) holds under ``policy``, once solved."""
        return 0

    def refresh_dampings(self, layer: "KFACLayer", damping: float) -> Optional[Tuple[float, float]]:
        """``(γ_a, γ_g)`` a refresh of ``layer`` applies on its decomposer under ``damping``, or None (undamped)."""
        return None

    def held_bytes(self) -> int:
        """Bytes of state held on this rank."""
        return 0

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Dict[str, Any], layer: "KFACLayer") -> None:
        """Restore what :meth:`state_dict` wrote for ``layer``, checked against its shapes."""


class EigenSolveStrategy(SolveStrategy):
    """The eigen path of Eqs. 15-17: each gradient worker holds both decompositions and Eq. 16's damped spectrum.

    Each decomposition travels packed (:func:`pack_eigen`) to every gradient
    worker, the source included, so all precondition from one layout.  With
    ``compute_outer`` (section 4.4) the first solve after a refresh caches
    the eigenvalue outer product under that step's ``γ``, split by the
    eigenvalues' π (:func:`~repro.kfac.kmath.eigenvalue_outer_product`), so it
    never travels; without it every solve forms it afresh.
    """

    name = "eigen"
    refresh = "eigen"
    memory_key = "eigen"

    def __init__(self, compute_outer: bool = True) -> None:
        self.compute_outer = bool(compute_outer)
        self.eigen_a: Optional[EigenDecomposition] = None
        self.eigen_g: Optional[EigenDecomposition] = None
        self.inverse_outer: Optional[np.ndarray] = None

    @classmethod
    def from_config(cls, config: "KFACConfig") -> "EigenSolveStrategy":
        return cls(compute_outer=config.compute_eigen_outer)

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], policy: "WirePolicy") -> int:
        """Per layer: both factors' eigenvalues and stored eigenvectors, with ``compute_eigen_outer`` the ``g × a`` outer product."""
        numel = sum(
            layer.a_repr.packed_eigen_numel
            + layer.g_repr.packed_eigen_numel
            + (layer.a_dim * layer.g_dim if policy.compute_eigen_outer else 0)
            for layer in layers
        )
        return numel * np.dtype(policy.precision.inverse_dtype).itemsize

    @classmethod
    def wire_shape(cls, repr_: FactorRepr) -> Tuple[int, ...]:
        return (repr_.packed_eigen_numel,)

    def _set(self, which: str, eigen: EigenDecomposition) -> None:
        setattr(self, f"eigen_{which}", eigen)
        self.inverse_outer = None  # formed afresh by the next solve

    def install(self, which: str, result: EigenDecomposition, layer: "KFACLayer") -> None:
        self._set(which, result.astype(layer.precision.inverse_dtype))

    def pack(self, which: str, layer: "KFACLayer") -> np.ndarray:
        eigen = getattr(self, f"eigen_{which}")
        if eigen is None:
            raise RuntimeError(f"layer {layer.name!r}: source rank holds no {which.upper()} decomposition to broadcast")
        return pack_eigen(eigen, layer.precision.inverse_dtype)

    def receive(self, which: str, packed: np.ndarray, layer: "KFACLayer") -> None:
        self._set(which, unpack_eigen_repr(packed, layer.factor_repr(which), layer.precision.inverse_dtype))

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if self.eigen_a is None or self.eigen_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no eigen decompositions")
        if self.compute_outer and self.inverse_outer is None:
            dtype = layer.precision.inverse_dtype
            self.inverse_outer = eigenvalue_outer_product(self.eigen_a, self.eigen_g, damping, dtype)
        return layer.kernels.precondition_contract(grad, self.eigen_a, self.eigen_g, damping, self.inverse_outer)

    def held_bytes(self) -> int:
        held = [part for part in (self.eigen_a, self.eigen_g, self.inverse_outer) if part is not None]
        return sum(part.nbytes for part in held)

    def state_dict(self) -> Dict[str, Any]:
        def decomposition(eigen: Optional[EigenDecomposition]):
            if eigen is None:
                return None
            # order="K": ``syevd`` hands back a column-major basis, and BLAS rounds by layout, so a
            # row-major copy would make the resumed run's preconditioned gradients differ in the last bits.
            eigenvectors = None if eigen.eigenvectors is None else eigen.eigenvectors.copy(order="K")
            return {"eigenvalues": eigen.eigenvalues.copy(), "eigenvectors": eigenvectors}

        return {
            "eigen_a": decomposition(self.eigen_a),
            "eigen_g": decomposition(self.eigen_g),
            "inverse_outer": None if self.inverse_outer is None else self.inverse_outer.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any], layer: "KFACLayer") -> None:
        """Restore both decompositions and the outer product, in the inverse dtype; a shape the layer's reprs do not hold raises naming it."""
        dtype = layer.precision.inverse_dtype

        def load(value, which: str) -> Optional[EigenDecomposition]:
            if value is None:
                return None
            repr_, values, vectors = layer.factor_repr(which), np.asarray(value["eigenvalues"]), value["eigenvectors"]
            found = (values.shape, None if vectors is None else np.shape(vectors))
            if found != ((repr_.dim,), repr_.eigenvector_shape):
                raise ValueError(
                    f"layer {layer.name!r}: {which.upper()} eigenvalues and eigenvectors have shapes {found}, expected "
                    f"{((repr_.dim,), repr_.eigenvector_shape)} for {repr_.describe()} (None: the implicit identity basis)"
                )
            # astype keeps the layout: a column-major basis stays column-major.
            return EigenDecomposition(None if vectors is None else np.asarray(vectors).astype(dtype), values.astype(dtype))

        eigen_a, eigen_g, outer = load(state["eigen_a"], "a"), load(state["eigen_g"], "g"), state["inverse_outer"]
        if outer is not None:
            outer = np.asarray(outer)
            if outer.shape != (layer.g_dim, layer.a_dim):
                raise ValueError(
                    f"layer {layer.name!r}: inverse_outer has shape {outer.shape}, expected {(layer.g_dim, layer.a_dim)}"
                )
            outer = outer.astype(dtype)
        self.eigen_a, self.eigen_g, self.inverse_outer = eigen_a, eigen_g, outer


class InverseSolveStrategy(SolveStrategy):
    """Damped inverses (Eq. 12), computed on the layer's decomposer and installed on each gradient worker.

    The inverses carry the damping of their refresh; ``damping`` of
    :meth:`solve` is not read.  Both factors are inverted on one rank, which
    holds both traces for π.  A dense inverse is held as one triangle
    (:class:`~repro.kfac.kmath.TriangleView`) of a buffer it shares with
    another the rank holds: :meth:`hold` places them as
    :func:`~repro.kfac.kmath.pair_triangles` pairs them, and
    :meth:`state_bytes` prices them by the same rule.  A diagonal factor's is
    its ``(n,)`` reciprocals, a block-diagonal one's its ``(k, b, b)`` squares.
    """

    name = "inverse"
    refresh = "inverse"
    pairs_factors = True

    def __init__(self) -> None:
        self.inv_a: Optional[Any] = None
        self.inv_g: Optional[Any] = None
        self.triangles: Dict[str, TriangleView] = {}  # "a" / "g" -> where a dense inverse goes (:meth:`hold`)

    @staticmethod
    def _dense(layers) -> List[Tuple[Any, str, int]]:
        """``(layer, "a" | "g", dim)`` of every dense (one-block) factor of ``layers``, in order: the triangles."""
        return [
            (layer, which, repr_.dim)
            for layer in layers
            for which, repr_ in (("a", layer.a_repr), ("g", layer.g_repr))
            if repr_.num_blocks == 1
        ]

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], policy: "WirePolicy") -> int:
        """The dense inverses in the buffers :meth:`hold` shares them in, the structured ones as held.

        Each group :func:`~repro.kfac.kmath.pair_triangles` makes of the dense
        inverses' dimensions takes its
        :func:`~repro.kfac.kmath.triangle_buffer_shape`.
        """
        dims = [dim for _, _, dim in cls._dense(layers)]
        numel = sum(math.prod(triangle_buffer_shape([dims[i] for i in group])) for group in pair_triangles(dims))
        numel += sum(
            math.prod(r.held_shape) for layer in layers for r in (layer.a_repr, layer.g_repr) if r.num_blocks > 1
        )
        return numel * np.dtype(policy.precision.inverse_dtype).itemsize

    @classmethod
    def hold(cls, solved: Dict["KFACLayer", "InverseSolveStrategy"], dtype) -> None:
        """Give the dense inverses of the layers ``solved`` maps to their strategies their triangles, in ``dtype``.

        :func:`~repro.kfac.kmath.hold_triangles` pairs them, so a gradient
        worker's inverses take the bytes :meth:`state_bytes` prices.
        """
        dense = cls._dense(solved)
        for (layer, which, _), view in zip(dense, hold_triangles([dim for _, _, dim in dense], dtype)):
            solved[layer].triangles[which] = view

    @classmethod
    def wire_shape(cls, repr_: FactorRepr) -> Tuple[int, ...]:
        """The factor's packed form (:attr:`FactorRepr.packed_shape`): its blocks' triangles, ``n`` for a diagonal one."""
        return repr_.packed_shape

    def refresh_dampings(self, layer: "KFACLayer", damping: float) -> Tuple[float, float]:
        """``damping`` split by π of the layer's two factors (:func:`~repro.kfac.kmath.tikhonov_pi`), both on the decomposer."""
        return split_damping(damping, tikhonov_pi(layer.factor_a, layer.factor_g, layer.a_repr, layer.g_repr))

    def install(self, which: str, packed: np.ndarray, layer: "KFACLayer") -> None:
        """Install the ``"a"`` / ``"g"`` inverse from its packed form, in the inverse dtype: every holder's one path.

        The decomposer installs its refresh task's result, the other gradient
        workers what the eigen round carries, a restore what the checkpoint
        kept: the same packed bits.  A dense inverse goes into its triangle
        (:meth:`~repro.kfac.kmath.TriangleView.install`, nothing allocated),
        a block-diagonal one is expanded into its squares
        (:meth:`FactorRepr.expand`), a diagonal one kept as its reciprocals.
        """
        repr_ = layer.factor_repr(which)
        if repr_.num_blocks == 1:
            held = self.triangles[which]
            held.install(packed)
        else:
            held = repr_.expand(packed.astype(layer.precision.inverse_dtype, copy=False))
        setattr(self, f"inv_{which}", held)

    def pack(self, which: str, layer: "KFACLayer") -> np.ndarray:
        return _packed(getattr(self, f"inv_{which}"))

    def receive(self, which: str, packed: np.ndarray, layer: "KFACLayer") -> None:
        self.install(which, packed, layer)

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if self.inv_a is None or self.inv_g is None:
            raise RuntimeError(
                f"layer {layer.name!r} has no installed inverses; a second-order refresh must install them before solve()"
            )
        return layer.kernels.precondition_inverse(grad, self.inv_a, self.inv_g)

    def held_bytes(self) -> int:
        return sum(inv.nbytes for inv in (self.inv_a, self.inv_g) if inv is not None)

    def state_dict(self) -> Dict[str, Any]:
        """Each inverse in its packed form, the one :meth:`install` takes, whichever partner shares its buffer."""
        held = {"inv_a": self.inv_a, "inv_g": self.inv_g}
        return {key: None if inverse is None else _packed(inverse) for key, inverse in held.items()}

    def load_state_dict(self, state: Dict[str, Any], layer: "KFACLayer") -> None:
        """Install ``inv_a`` / ``inv_g`` from their packed forms, each checked against its factor's repr.

        A shape that is not the factor's packed form
        (:attr:`FactorRepr.packed_shape`), or a non-float array, raises naming
        the layer and factor before anything is installed.
        """
        for which in ("a", "g"):
            value, expected = state[f"inv_{which}"], layer.factor_repr(which).packed_shape
            if value is not None and (np.shape(value) != expected or np.asarray(value).dtype.kind != "f"):
                value = np.asarray(value)
                raise ValueError(
                    f"layer {layer.name!r}: checkpoint inverse of the {which.upper()} factor is a {value.dtype} "
                    f"array of shape {value.shape}, expected floats of shape {expected} (its packed form)"
                )
        for which in ("a", "g"):
            value = state[f"inv_{which}"]
            if value is None:
                setattr(self, f"inv_{which}", None)
            else:
                self.install(which, np.asarray(value), layer)


def _packed(held) -> np.ndarray:
    """A held inverse in its packed form, as a fresh array: a triangle's, the blocks' triangles, the reciprocals."""
    if isinstance(held, TriangleView):
        return held.packed()
    return held.copy() if held.ndim == 1 else np.concatenate([pack_triangle(square) for square in held])


class CGSolveStrategy(SolveStrategy):
    """Inverse-free conjugate-gradient solves, warm-started across steps.

    No factorization is ever computed: each iteration applies the damped
    Kronecker operator directly.  The previous step's solution seeds the
    next solve (DeepFormer's ``last_x0``), so after the first step only a
    few CG iterations are needed to track the slowly moving gradient.  The
    operator is damped ``(π√γ, √γ/π)``, π from the running factors the
    gradient worker holds (:func:`~repro.kfac.kmath.tikhonov_pi`).
    """

    name = "cg"

    def __init__(self, tol: float = 1e-8, max_iter: int = 50) -> None:
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.last_solution: Optional[np.ndarray] = None
        self.total_iterations = 0

    @classmethod
    def from_config(cls, config: "KFACConfig") -> "CGSolveStrategy":
        return cls(tol=config.cg_tol, max_iter=config.cg_max_iter)

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], policy: "WirePolicy") -> int:
        """``last_solution`` per layer: the float64 ``g × a`` warm start."""
        return sum(8 * layer.a_dim * layer.g_dim for layer in layers)

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if layer.factor_a is None or layer.factor_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no factors to solve against")
        pi = tikhonov_pi(layer.factor_a, layer.factor_g, layer.a_repr, layer.g_repr)  # a gradient worker holds both
        damping_a, damping_g = split_damping(damping, pi)
        solution, iterations = kronecker_cg(
            layer.a_repr.to_dense(layer.factor_a),
            layer.g_repr.to_dense(layer.factor_g),
            grad,
            damping_a,
            damping_g,
            x0=self.last_solution,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        self.last_solution = solution
        self.total_iterations += iterations
        return solution.astype(grad.dtype)

    def held_bytes(self) -> int:
        return 0 if self.last_solution is None else self.last_solution.nbytes

    def state_dict(self) -> Dict[str, Any]:
        return {
            "last_solution": None if self.last_solution is None else self.last_solution.copy(),
            "total_iterations": self.total_iterations,
        }

    def load_state_dict(self, state: Dict[str, Any], layer: "KFACLayer") -> None:
        """Restore the warm start, which must be a float ``(g_dim, a_dim)`` array (raises naming the layer), as float64."""
        warm = state["last_solution"]
        if warm is not None:
            warm, expected = np.asarray(warm), (layer.g_dim, layer.a_dim)
            if warm.shape != expected or warm.dtype.kind != "f":
                raise ValueError(
                    f"layer {layer.name!r}: checkpoint CG warm start is a {warm.dtype} array of shape {warm.shape}, "
                    f"expected floats of shape {expected}"
                )
            warm = warm.astype(np.float64)
        self.last_solution = warm
        self.total_iterations = int(state["total_iterations"])


#: Strategy name -> class.
_SOLVERS: Dict[str, type] = {cls.name: cls for cls in (EigenSolveStrategy, InverseSolveStrategy, CGSolveStrategy)}
