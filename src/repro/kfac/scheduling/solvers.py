"""Per-layer solve strategies: damped inverse, eigen, warm-started CG.

KAISA's paper path eigen-decomposes both Kronecker factors -- O(F³) work that
pays off when the decomposition is reused over many steps and many
gradients.  Three strategies sit behind one interface:

* :class:`InverseSolveStrategy` -- the default: the layer's decomposer
  inverts ``(A + π√γ I)`` and ``(G + √γ/π I)`` by Cholesky once per
  second-order refresh (Eq. 12 with factored Tikhonov damping), ships each
  inverse in its factor's packed form, and every gradient worker
  preconditions with two GEMMs;
* :class:`EigenSolveStrategy` -- the eigen path of Eqs. 15-17, damped by
  the same split with π from the eigenvalues the holder received;
* :class:`CGSolveStrategy` -- never factorize at all: solve
  ``(G + γ_g I) X (A + γ_a I) = ∇L`` by conjugate gradients on the
  Kronecker-structured operator, warm-started from the previous solution
  (gradients change slowly between steps, so a handful of iterations
  suffice).

``KFACConfig.solve_strategy`` / ``small_layer_solver`` name one of the three
(:func:`make_solve_strategy`).  Per-layer solver state (installed inverses,
CG warm starts) participates in ``state_dict``/``load_state_dict`` so
checkpoint resume stays bit-identical.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..kmath import split_damping, tikhonov_pi

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..layers import KFACLayer
    from ..strategy import LayerShapeInfo, WirePolicy

__all__ = [
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "CGSolveStrategy",
    "make_solve_strategy",
    "solve_strategy_class",
    "available_solve_strategies",
    "kronecker_cg",
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


def make_solve_strategy(name: str, **kwargs: Any) -> "SolveStrategy":
    """Instantiate the strategy ``name`` with ``kwargs``."""
    return solve_strategy_class(name)(**kwargs)


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
    """How one layer's gradient is preconditioned from its Kronecker factors.

    ``solve`` runs on the layer's gradient workers every iteration and
    returns the preconditioned gradient matrix.
    """

    name: str = "?"
    #: What a second-order refresh computes for the layer on its decomposer:
    #: ``"eigen"`` (the decompositions of Eqs. 15-17), ``"inverse"`` (the
    #: damped inverses of Eq. 12) or None (nothing: the strategy reads the
    #: running factors itself).  Read off the class by
    #: :meth:`~repro.kfac.KFACConfig.distribution_plan` alone: a layer whose
    #: refresh computes nothing has no decomposers and no eigen round.
    refresh: Optional[str] = None

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        """Precondition ``grad``, the layer's current bias-folded gradient matrix (:meth:`KFACLayer.get_gradient`)."""
        raise NotImplementedError

    @classmethod
    def state_bytes(cls, layer: "LayerShapeInfo", policy: "WirePolicy") -> int:
        """Bytes of solver state a gradient worker holds for ``layer`` under ``policy``, once it solved."""
        return 0

    def solver_bytes(self) -> int:
        """Bytes of cached solver state held on this rank."""
        return 0

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Dict[str, Any], layer: Optional["KFACLayer"] = None) -> None:
        """Restore what :meth:`state_dict` wrote for ``layer``."""


class EigenSolveStrategy(SolveStrategy):
    """The eigen-decomposition path of Eqs. 15-17.

    The distribution plan owns the decomposition placement and
    broadcasts; this object only delegates the per-iteration solve to
    :meth:`KFACLayer.precondition`.
    """

    name = "eigen"
    refresh = "eigen"

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        return layer.precondition(damping, grad=grad)


class InverseSolveStrategy(SolveStrategy):
    """Damped inverses (Eq. 12), computed on the layer's decomposer and installed on each gradient worker.

    The inverses carry the damping of their refresh; ``damping`` of
    :meth:`solve` is not read.
    """

    name = "inverse"
    refresh = "inverse"

    def __init__(self) -> None:
        self.inv_a: Optional[np.ndarray] = None
        self.inv_g: Optional[np.ndarray] = None

    @classmethod
    def state_bytes(cls, layer: "LayerShapeInfo", policy: "WirePolicy") -> int:
        """``inv_a`` and ``inv_g`` as installed (:attr:`FactorRepr.held_shape`): ``k·b²``, ``n`` for a diagonal one."""
        numel = sum(math.prod(r.held_shape) for r in (layer.a_repr, layer.g_repr))
        return numel * np.dtype(policy.precision.inverse_dtype).itemsize

    def install(self, which: str, inverse: np.ndarray) -> None:
        """Install the ``"a"`` / ``"g"`` inverse in the form the GEMMs read (:attr:`FactorRepr.held_shape`), as it is.

        The decomposer installs its refresh task's result: the C-order
        symmetric squares of the factor's blocks, mirrored on the worker.  The
        other gradient workers install :meth:`FactorRepr.expand` of the packed
        triangles the eigen round carries, which is the same bits, so the
        replicas precondition bitwise alike.
        """
        setattr(self, f"inv_{which}", inverse)

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if self.inv_a is None or self.inv_g is None:
            raise RuntimeError(
                f"layer {layer.name!r} has no installed inverses; a second-order refresh must install them before solve()"
            )
        return layer.kernels.precondition_inverse(grad, self.inv_a, self.inv_g)

    def solver_bytes(self) -> int:
        return sum(inv.nbytes for inv in (self.inv_a, self.inv_g) if inv is not None)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "inv_a": None if self.inv_a is None else self.inv_a.copy(),
            "inv_g": None if self.inv_g is None else self.inv_g.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any], layer: "KFACLayer") -> None:
        """Restore ``inv_a`` / ``inv_g``, each checked against its factor's repr and cast to the layer's inverse dtype.

        The cast is C-contiguous, the layout every holder installs: the BLAS
        rounding of the two GEMMs depends on it.  A shape the repr does not
        install, or a non-float array, raises naming the layer and factor.
        """
        loaded = []
        for which in ("a", "g"):
            value = state[f"inv_{which}"]
            if value is not None:
                value, expected = np.asarray(value), layer.factor_repr(which).held_shape
                if value.shape != expected or value.dtype.kind != "f":
                    raise ValueError(
                        f"layer {layer.name!r}: checkpoint inverse of the {which.upper()} factor is a {value.dtype} "
                        f"array of shape {value.shape}, expected floats of shape {expected}"
                    )
                value = np.array(value, dtype=layer.precision.inverse_dtype, order="C")
            loaded.append(value)
        self.inv_a, self.inv_g = loaded


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
    def state_bytes(cls, layer: "LayerShapeInfo", policy: "WirePolicy") -> int:
        """``last_solution``: the float64 ``g × a`` warm start."""
        return 8 * layer.a_dim * layer.g_dim

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if layer.factor_a is None or layer.factor_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no factors to solve against")
        pi = tikhonov_pi(layer.factor_a, layer.factor_g, layer.a_repr, layer.g_repr)  # a gradient worker holds both
        damping_a, damping_g = split_damping(damping, pi)
        warm = self.last_solution if self.last_solution is not None and self.last_solution.shape == grad.shape else None
        solution, iterations = kronecker_cg(
            layer.a_repr.to_dense(layer.factor_a),
            layer.g_repr.to_dense(layer.factor_g),
            grad,
            damping_a,
            damping_g,
            x0=warm,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        self.last_solution = solution
        self.total_iterations += iterations
        return solution.astype(grad.dtype)

    def solver_bytes(self) -> int:
        return 0 if self.last_solution is None else self.last_solution.nbytes

    def state_dict(self) -> Dict[str, Any]:
        return {
            "last_solution": None if self.last_solution is None else self.last_solution.copy(),
            "total_iterations": self.total_iterations,
        }

    def load_state_dict(self, state: Dict[str, Any], layer: Optional["KFACLayer"] = None) -> None:
        warm = state["last_solution"]
        self.last_solution = None if warm is None else np.asarray(warm, dtype=np.float64)
        self.total_iterations = int(state["total_iterations"])


#: Strategy name -> class.
_SOLVERS: Dict[str, type] = {cls.name: cls for cls in (EigenSolveStrategy, InverseSolveStrategy, CGSolveStrategy)}
