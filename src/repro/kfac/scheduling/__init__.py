"""Adaptive second-order scheduling: when and how each layer's K-FAC state refreshes.

The paper's F_freq/K_freq knobs (Table 2) refresh every layer's Kronecker
factors and eigen decompositions on one global fixed cadence, which the
distribution plan publishes as data
(:meth:`~repro.kfac.strategy.DistributionPlan.actions`).  This package holds
what departs from it:

* :class:`DriftSchedule` (``drift_tol > 0`` only) revises the plan's actions
  per layer from the normalized Frobenius drift of each layer's allreduced
  factors against the factors last consumed by a refresh.  Stale-tolerant
  layers (drift below ``drift_tol``) have their eigen-recompute interval
  stretched geometrically, clamped to ``max_staleness``; a drift spike pulls
  the refresh forward and resets the interval to the configured base cadence.
* :class:`AdaptiveDampingController` adjusts the Tikhonov damping ``γ`` with
  a Levenberg-Marquardt accept/shrink rule on the ratio of actual to
  predicted loss reduction, optionally combined with the factor-trace π
  correction (:func:`repro.kfac.kmath.tikhonov_pi`, after torch-kfac).
* :class:`SolveStrategy` implementations decide *how* a layer's gradient is
  preconditioned: the default eigen path, a direct damped inverse, or a
  warm-started conjugate-gradient solve (:func:`kronecker_cg`) that skips
  the O(F³) eigen decomposition entirely — the right trade for small layers.

With the adaptive knobs at their defaults (``drift_tol=0``, fixed damping, the
eigen solver) :class:`~repro.kfac.KFAC` runs the paper's fixed-cadence step,
and each knob departs from it on its own.
"""

from .damping import MAX_DAMPING, MIN_DAMPING, AdaptiveDampingController
from .drift import DriftSchedule, factor_drift
from .solvers import (
    CGSolveStrategy,
    EigenSolveStrategy,
    InverseSolveStrategy,
    SolveStrategy,
    available_solve_strategies,
    kronecker_cg,
    make_solve_strategy,
)

__all__ = [
    "DriftSchedule",
    "factor_drift",
    "AdaptiveDampingController",
    "MIN_DAMPING",
    "MAX_DAMPING",
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "CGSolveStrategy",
    "available_solve_strategies",
    "make_solve_strategy",
    "kronecker_cg",
]
