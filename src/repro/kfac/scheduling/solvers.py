"""Per-layer solve strategies: eigen, direct damped inverse, warm-started CG.

KAISA's default preconditioning path eigen-decomposes both Kronecker factors
— O(F³) work that pays off when the decomposition is reused over many steps
and many gradients.  For small layers (LayerNorm gains, narrow MLP heads)
the decomposition dominates, and the DeepFormer ``CG_KFAC`` exemplar shows
two cheaper alternatives that this module packages behind one interface:

* :class:`EigenSolveStrategy` — the existing path, unchanged (bitwise
  identical to the fixed-frequency oracle);
* :class:`InverseSolveStrategy` — form ``(A + γI)⁻¹`` / ``(G + γI)⁻¹`` once
  per second-order refresh (Eq. 12) and precondition with two matmuls;
* :class:`CGSolveStrategy` — never factorize at all: solve
  ``(G + γ_g I) X (A + γ_a I) = ∇L`` by conjugate gradients on the
  Kronecker-structured operator, warm-started from the previous solution
  (gradients change slowly between steps, so a handful of iterations
  suffice).

``KFACConfig.solve_strategy`` / ``small_layer_solver`` name one of the three
(:func:`make_solve_strategy`).  Per-layer solver
state (cached inverses, CG warm starts) participates in
``state_dict``/``load_state_dict`` so checkpoint resume stays bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..kmath import damped_inverse, precondition_with_inverse

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..layers import KFACLayer

__all__ = [
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "CGSolveStrategy",
    "make_solve_strategy",
    "available_solve_strategies",
    "kronecker_cg",
]


def available_solve_strategies() -> List[str]:
    """Sorted names of the solve strategies."""
    return sorted(_SOLVERS)


def make_solve_strategy(name: str, **kwargs: Any) -> "SolveStrategy":
    """Instantiate the strategy ``name`` with ``kwargs``."""
    try:
        cls = _SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solve strategy {name!r}; available: {available_solve_strategies()}"
        ) from None
    return cls(**kwargs)


def split_damping(damping: float, pi: Optional[float]) -> Tuple[float, float]:
    """Per-factor Tikhonov damping ``(γ_a, γ_g)``.

    Without π correction both factors are damped by the full ``γ`` (matching
    :func:`~repro.kfac.kmath.damped_inverse`, Eq. 12).  With the torch-kfac
    π correction the damping splits as ``γ_a = π√γ``, ``γ_g = √γ/π`` so the
    product of the damped spectra still scales like ``γ`` while respecting
    the factors' relative trace magnitudes.
    """
    if pi is None:
        return float(damping), float(damping)
    root = float(np.sqrt(damping))
    pi = float(pi)
    return pi * root, root / pi


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

    ``prepare`` runs on the layer's gradient workers at every second-order
    refresh (a step whose actions list the layer in ``refresh``); ``solve``
    runs on the gradient workers every iteration and
    returns the preconditioned gradient matrix.
    """

    name: str = "?"
    #: Whether the strategy consumes eigen decompositions — if True the
    #: preconditioner runs the strategy-object eigen compute/broadcast
    #: stages for the layer; if False those stages (and their comm) are
    #: skipped entirely.
    needs_eigen: bool = False

    def prepare(self, layer: "KFACLayer", damping: float, pi: Optional[float] = None) -> None:
        """Refresh cached solver state from the layer's current factors."""

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float, pi: Optional[float] = None) -> np.ndarray:
        """Precondition ``grad``, the layer's current bias-folded gradient matrix (:meth:`KFACLayer.get_gradient`)."""
        raise NotImplementedError

    def solver_bytes(self) -> int:
        """Bytes of cached solver state held on this rank."""
        return 0

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        pass

    def reset(self) -> None:
        """Drop cached state (paired with ``KFAC.reset``)."""


class EigenSolveStrategy(SolveStrategy):
    """The default eigen-decomposition path (Eqs. 15-17), unchanged.

    The distribution plan owns the decomposition placement and
    broadcasts; this object only delegates the per-iteration solve to
    :meth:`KFACLayer.precondition`, so the plan is bitwise identical to the
    fixed-frequency oracle.
    """

    name = "eigen"
    needs_eigen = True

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float, pi: Optional[float] = None) -> np.ndarray:
        return layer.precondition(damping, pi=pi, grad=grad)


class InverseSolveStrategy(SolveStrategy):
    """Direct damped inverses (Eq. 12): one ``inv`` per factor per refresh."""

    name = "inverse"

    def __init__(self) -> None:
        self.inv_a: Optional[np.ndarray] = None
        self.inv_g: Optional[np.ndarray] = None

    def prepare(self, layer: "KFACLayer", damping: float, pi: Optional[float] = None) -> None:
        if layer.factor_a is None or layer.factor_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no factors to invert")
        damping_a, damping_g = split_damping(damping, pi)
        # The inverse reads the whole matrix: one of the two places a stored factor is expanded.
        self.inv_a = damped_inverse(layer.a_repr.to_dense(layer.factor_a), damping_a)
        self.inv_g = damped_inverse(layer.g_repr.to_dense(layer.factor_g), damping_g)

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float, pi: Optional[float] = None) -> np.ndarray:
        if self.inv_a is None or self.inv_g is None:
            raise RuntimeError(
                f"layer {layer.name!r} has no cached inverses; prepare() must run on a "
                "second-order refresh before solve()"
            )
        return precondition_with_inverse(grad, self.inv_a, self.inv_g)

    def solver_bytes(self) -> int:
        return sum(inv.nbytes for inv in (self.inv_a, self.inv_g) if inv is not None)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "inv_a": None if self.inv_a is None else self.inv_a.copy(),
            "inv_g": None if self.inv_g is None else self.inv_g.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        inv_a, inv_g = state["inv_a"], state["inv_g"]
        self.inv_a = None if inv_a is None else np.asarray(inv_a, dtype=np.float32)
        self.inv_g = None if inv_g is None else np.asarray(inv_g, dtype=np.float32)

    def reset(self) -> None:
        self.inv_a = None
        self.inv_g = None


class CGSolveStrategy(SolveStrategy):
    """Inverse-free conjugate-gradient solves, warm-started across steps.

    No factorization is ever computed: each iteration applies the damped
    Kronecker operator directly.  The previous step's solution seeds the
    next solve (DeepFormer's ``last_x0``), so after the first step only a
    few CG iterations are needed to track the slowly moving gradient.
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

    def prepare(self, layer: "KFACLayer", damping: float, pi: Optional[float] = None) -> None:
        if layer.factor_a is None or layer.factor_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no factors to solve against")
        # Nothing to cache: the operator is applied factor-fresh at every
        # solve, so new factors (and new damping) take effect immediately.

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float, pi: Optional[float] = None) -> np.ndarray:
        if layer.factor_a is None or layer.factor_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no factors to solve against")
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

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        warm = state["last_solution"]
        self.last_solution = None if warm is None else np.asarray(warm, dtype=np.float64)
        self.total_iterations = int(state["total_iterations"])

    def reset(self) -> None:
        self.last_solution = None
        self.total_iterations = 0


#: Strategy name -> class.
_SOLVERS: Dict[str, type] = {cls.name: cls for cls in (EigenSolveStrategy, InverseSolveStrategy, CGSolveStrategy)}
