"""How each layer's K-FAC state is solved and damped.

The paper's F_freq/K_freq knobs (Table 2) refresh every layer's Kronecker
factors and second-order state on one global fixed cadence, which the
distribution plan publishes as data
(:meth:`~repro.kfac.strategy.DistributionPlan.actions`).  This package holds
the two choices beside it:

* :class:`SolveStrategy` implementations decide *how* a layer's gradient is
  preconditioned: the default damped inverse (Eq. 12) or the paper's eigen
  path (Eqs. 15-17).  Both damp ``(π√γ, √γ/π)``
  (:func:`repro.kfac.kmath.split_damping`, after torch-kfac's ``pi=True``),
  π from what the solving rank holds: the factors' traces
  (:func:`repro.kfac.kmath.tikhonov_pi`) or the eigenvalues'
  (:func:`repro.kfac.kmath.eigenvalue_pi`).
* :class:`AdaptiveDampingController` (``adaptive_damping=True``) adjusts the
  Tikhonov damping ``γ`` with a Levenberg-Marquardt accept/shrink rule on the
  ratio of actual to predicted loss reduction.
"""

from .damping import MAX_DAMPING, MIN_DAMPING, AdaptiveDampingController
from .solvers import EigenSolveStrategy, InverseSolveStrategy, SolveStrategy, available_solve_strategies

__all__ = [
    "AdaptiveDampingController",
    "MIN_DAMPING",
    "MAX_DAMPING",
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "available_solve_strategies",
]
