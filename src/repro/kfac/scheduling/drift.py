"""Drift-driven revision of the plan's refresh actions (``drift_tol > 0``).

The distribution plan states the base cadence
(:meth:`~repro.kfac.strategy.DistributionPlan.actions`).  With a positive
``drift_tol`` a :class:`DriftSchedule` revises those actions per layer from
the normalized Frobenius drift of its factors against the factors as they
stood at the end of its last refresh step.  Drift is measured after the
factor allreduce, on factors every rank then holds, so every rank revises
identically without any extra communication.  A stale-tolerant layer (drift below ``drift_tol``) doubles its
eigen interval, up to ``max_staleness``, and stretches its factor interval in
proportion; a drift spike pulls the refresh forward to the next step and
resets both intervals to the base cadence.  Every revision is made by the end
of a step, so a step's actions are known when it begins -- when its refresh
reads the factors.  With ``drift_tol=0`` nothing is
revised and no schedule exists.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..assignment import next_refresh_step
from ..strategy import DistributionPlan, StepActions

__all__ = ["DriftSchedule", "factor_drift"]

_DRIFT_EPS = 1e-12


def factor_drift(new: np.ndarray, old: np.ndarray, repr=None) -> float:
    """Normalized Frobenius change ``||new - old||_F / ||old||_F`` of the represented matrices (float64).

    Factors arrive in their stored form and ``repr`` (their
    :class:`~repro.kfac.factors.FactorRepr`) says which: the packed triangle of
    a dense factor holds every off-diagonal entry once, so its norm weighs
    them twice (:meth:`~repro.kfac.factors.FactorRepr.frobenius_norm`) and the
    drift stays the full-matrix quantity ``drift_tol`` was tuned on.  A
    diagonal vector or a block stack holds exactly the nonzero entries; with
    ``repr=None`` the arrays are taken at face value (any shape).  ``old`` may
    still be the square matrix a checkpoint from before packed storage holds.
    """
    if repr is None:
        norm = np.linalg.norm
    else:
        norm, old = repr.frobenius_norm, repr.as_packed(old, "drift snapshot")
    old64 = old.astype(np.float64)
    return float(norm(new.astype(np.float64) - old64)) / (float(norm(old64)) + _DRIFT_EPS)


@dataclasses.dataclass
class _LayerSchedule:
    """Mutable per-layer revision state (one instance per preconditioned layer); its fields are its checkpoint."""

    factor_interval: int
    eigen_interval: int
    next_factor_step: int = 0
    next_eigen_step: int = 0
    snapshot_a: Optional[np.ndarray] = None
    snapshot_g: Optional[np.ndarray] = None
    last_drift: Optional[float] = None
    last_eigen_step: int = -1


class DriftSchedule:
    """Per-layer intervals, next due steps and drift snapshots that revise ``plan``'s actions.

    A step takes :meth:`revise` of the plan's actions, calls
    :meth:`observe_factors` for every folded layer once its factors are
    allreduced (a drift above ``drift_tol`` schedules the layer's refresh on
    the next step, whose :meth:`revise` then includes it), and
    :meth:`mark_second_order` for every refreshed layer.  A fresh schedule
    folds and refreshes every layer on its first step.
    """

    def __init__(self, plan: DistributionPlan, drift_tol: float, max_staleness: int = 0) -> None:
        self.plan = plan
        self.drift_tol = float(drift_tol)
        self.max_staleness = int(max_staleness)
        self.factor_update_freq, self.inv_update_freq = plan.factor_update_freq, plan.inv_update_freq
        # Base eigen:factor cadence ratio, used to stretch factor intervals
        # proportionally with the eigen interval (comm volume drops together
        # with eigen compute).
        self._ratio = max(1, round(self.inv_update_freq / self.factor_update_freq))
        self._layers = {name: _LayerSchedule(self.factor_update_freq, self.inv_update_freq) for name in plan.groups}

    def revise(self, actions: StepActions) -> StepActions:
        """``actions`` with the layers the per-layer intervals make due.

        A due refresh at offset 0 forces a fold, as the base cadence folds on
        every offset-0 refresh step; a staggered one sits on a fold-free step
        by design and forces none.
        """
        step, offsets = actions.step, self.plan.refresh_offsets
        fold = tuple(
            name
            for name, state in self._layers.items()
            if step >= state.next_factor_step or (step >= state.next_eigen_step and not offsets[name])
        )
        return dataclasses.replace(actions, fold=fold, refresh=self.refreshes(step))

    def refreshes(self, step: int) -> Tuple[str, ...]:
        """The layers that refresh their eigen / solver state on ``step``, in registration order."""
        return tuple(name for name, state in self._layers.items() if step >= state.next_eigen_step)

    def observe_factors(
        self, name: str, step: int, factor_a: np.ndarray, factor_g: np.ndarray, a_repr=None, g_repr=None
    ) -> bool:
        """Record a performed factor update and measure its drift; whether it pulled the refresh forward.

        ``factor_a`` / ``factor_g`` are the factors folded from the
        *allreduced* windows, the same on every rank; ``a_repr`` / ``g_repr``
        let :func:`factor_drift` weigh a packed triangle as its matrix.  A
        drift above ``drift_tol`` (kept as ``last_drift``) schedules a
        refresh for the next step and resets the stretched intervals.
        """
        state = self._layers[name]
        triggered = False
        if state.snapshot_a is not None:
            drift = 0.5 * (
                factor_drift(factor_a, state.snapshot_a, a_repr) + factor_drift(factor_g, state.snapshot_g, g_repr)
            )
            state.last_drift = drift
            if drift > self.drift_tol and step + 1 < state.next_eigen_step:
                state.next_eigen_step = step + 1
                state.eigen_interval = self.inv_update_freq
                state.factor_interval = self.factor_update_freq
                triggered = True
        state.next_factor_step = step + state.factor_interval
        return triggered

    def mark_second_order(self, name: str, step: int, factor_a: np.ndarray, factor_g: np.ndarray) -> None:
        """Record a performed refresh and schedule the next one.

        When the layer proved stale-tolerant (its last measured drift stayed
        below ``drift_tol``), the eigen interval doubles up to
        ``max_staleness`` and the factor interval stretches proportionally;
        the current factors are snapshotted as the new drift reference.  The
        first refresh puts the layer on its phase in the plan's
        ``refresh_offsets``; from there the interval carries it.
        """
        state = self._layers[name]
        first = state.last_eigen_step < 0
        state.last_eigen_step = step
        if self.max_staleness > self.inv_update_freq and state.last_drift is not None and state.last_drift <= self.drift_tol:
            state.eigen_interval = min(state.eigen_interval * 2, self.max_staleness)
        state.factor_interval = min(
            state.eigen_interval,
            max(self.factor_update_freq, state.eigen_interval // self._ratio),
        )
        state.snapshot_a = factor_a.astype(np.float32, copy=True)
        state.snapshot_g = factor_g.astype(np.float32, copy=True)
        if first:
            offset = self.plan.refresh_offsets[name]
            state.next_eigen_step = next_refresh_step(offset, step + 1, self.factor_update_freq, self.inv_update_freq)
        else:
            state.next_eigen_step = step + state.eigen_interval

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Any]:
        """Complete revision state; restoring it resumes the schedule bit-identically (the knobs are the config's)."""
        layers = {
            name: {key: value.copy() if isinstance(value, np.ndarray) else value for key, value in vars(state).items()}
            for name, state in self._layers.items()
        }
        return {"layers": layers}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict`; the knobs, event counters and last fold step older checkpoints carry are ignored."""
        layers = state["layers"]
        if set(layers) != set(self._layers):
            raise ValueError(f"scheduler state of layers {sorted(layers)} does not match the registered {list(self._layers)}")
        for name, entry in layers.items():
            kept = {field.name: entry[field.name] for field in dataclasses.fields(_LayerSchedule)}
            for key in ("snapshot_a", "snapshot_g"):
                kept[key] = None if kept[key] is None else np.asarray(kept[key], dtype=np.float32)
            self._layers[name] = _LayerSchedule(**kept)
