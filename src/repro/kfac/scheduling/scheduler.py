"""Per-layer factor/eigen update planning with drift-driven interval stretching.

:class:`FactorUpdateScheduler` owns the *when* of second-order maintenance.
Every rank constructs the identical plan from the allreduced factor windows
(drift is measured after the factor allreduce on factors every rank then
holds, so the inputs are bitwise identical across ranks), which keeps the
collective schedules of all ranks in lock step without any extra
communication.

The plan is queried at three points of an optimization step:

* :meth:`factors_due` — before the forward pass (layer hooks only
  accumulate statistics on factor-update steps) and again when
  ``KFAC.step()`` / the gradient pipeline assemble the factor allreduce
  schedule;
* :meth:`second_order_due` — after :meth:`observe_factors` ran for every
  updated layer, deciding which layers refresh their eigen decompositions
  (or inverse/CG solver state) this step;
* :meth:`advance` — at the end of the step: which layers passed over a
  base-cadence opportunity.

The scheduler holds plan state only; ``KFAC.step()`` counts the decisions in
the rank's tracer.  With ``drift_tol=0`` (the default) no snapshots are kept
and the due-steps are exactly the base cadence: a fold on the steps
:func:`~repro.kfac.assignment.folds_on` names (``step % inv_update_freq %
factor_update_freq == 0``), every layer's decomposition on step 0 and
afterwards on the steps with
``step % inv_update_freq`` equal to the layer's offset in the distribution
plan's ``refresh_offsets`` (all 0 unless the plan spreads an interval's
decompositions over its fold-free steps).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..assignment import folds_on, next_refresh_step

__all__ = ["FactorUpdateScheduler", "factor_drift"]

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


class _LayerSchedule:
    """Mutable per-layer plan state (one instance per preconditioned layer)."""

    __slots__ = (
        "next_factor_step",
        "factor_interval",
        "next_eigen_step",
        "eigen_interval",
        "snapshot_a",
        "snapshot_g",
        "last_drift",
        "last_factor_step",
        "last_eigen_step",
    )

    def __init__(self, factor_interval: int, eigen_interval: int) -> None:
        self.next_factor_step = 0
        self.factor_interval = factor_interval
        self.next_eigen_step = 0
        self.eigen_interval = eigen_interval
        self.snapshot_a: Optional[np.ndarray] = None
        self.snapshot_g: Optional[np.ndarray] = None
        self.last_drift: Optional[float] = None
        self.last_factor_step = -1
        self.last_eigen_step = -1


class FactorUpdateScheduler:
    """Plans per-layer factor and second-order refresh steps.

    Parameters
    ----------
    layer_names:
        Registration-ordered layer names; the plan is keyed by name so it
        survives checkpoint/resume independently of object identity.
    factor_update_freq, inv_update_freq:
        Base cadences (the paper's F_freq and K_freq).  ``inv_update_freq``
        need not be a multiple of ``factor_update_freq`` — a second-order
        refresh at offset 0 forces a factor update on the same step so
        decompositions always consume fresh statistics.
    drift_tol:
        Normalized Frobenius drift threshold.  ``0`` disables drift tracking
        entirely (fixed cadence, no snapshots).  With a positive tolerance,
        a layer whose factors drifted less than ``drift_tol`` since its last
        refresh doubles its eigen interval (clamped to ``max_staleness``),
        and a drift above the tolerance pulls the refresh forward to the
        current step and resets the intervals to their base values.
    max_staleness:
        Upper bound (in steps) for a stretched eigen interval.  ``0`` means
        no stretching: drift can only *accelerate* refreshes.
    refresh_offsets:
        Per-layer phase in ``[0, inv_update_freq)`` of the base cadence's
        refresh (the distribution plan's; absent = 0).  A layer's first refresh
        -- step 0 -- seeds its phase (:meth:`_on_phase`) and ``next_eigen_step``
        carries it from there, so a drift trigger moves it and a checkpoint
        resumes on the phase it stored.  A layer with a nonzero offset reads
        its factors as last folded: its refresh never forces a fold.
    """

    def __init__(
        self,
        layer_names: Sequence[str],
        factor_update_freq: int,
        inv_update_freq: int,
        drift_tol: float = 0.0,
        max_staleness: int = 0,
        refresh_offsets: Optional[Mapping[str, int]] = None,
    ) -> None:
        names = list(layer_names)
        if not names:
            raise ValueError("FactorUpdateScheduler needs at least one layer")
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        if factor_update_freq < 1 or inv_update_freq < 1:
            raise ValueError("update frequencies must be >= 1")
        if drift_tol < 0.0:
            raise ValueError("drift_tol must be >= 0")
        if max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if max_staleness and max_staleness < inv_update_freq:
            raise ValueError(
                f"max_staleness ({max_staleness}) caps the stretched eigen interval and must be "
                f">= inv_update_freq ({inv_update_freq})"
            )
        self.factor_update_freq = int(factor_update_freq)
        self.inv_update_freq = int(inv_update_freq)
        self.drift_tol = float(drift_tol)
        self.max_staleness = int(max_staleness)
        # Base eigen:factor cadence ratio, used to stretch factor intervals
        # proportionally with the eigen interval (comm volume drops together
        # with eigen compute).
        self._ratio = max(1, round(self.inv_update_freq / self.factor_update_freq))
        self._offsets = {name: int((refresh_offsets or {}).get(name, 0)) for name in names}
        if not all(0 <= offset < self.inv_update_freq for offset in self._offsets.values()):
            raise ValueError(f"refresh offsets must lie in [0, inv_update_freq={self.inv_update_freq})")
        self._layers: Dict[str, _LayerSchedule] = {
            name: _LayerSchedule(self.factor_update_freq, self.inv_update_freq) for name in names
        }

    # ----------------------------------------------------------------- plan
    def layer_names(self) -> List[str]:
        return list(self._layers)

    def factors_due(self, name: str, step: int) -> bool:
        """Whether ``name`` folds and allreduces its factors on ``step``.

        A due second-order refresh at offset 0 forces a factor update so the
        decomposition (or inverse/CG state) consumes fresh statistics; a
        staggered one sits on a fold-free step by design and forces none.
        """
        state = self._layers[name]
        return step >= state.next_factor_step or (step >= state.next_eigen_step and not self._offsets[name])

    def second_order_due(self, name: str, step: int) -> bool:
        """Whether ``name`` refreshes its eigen/inverse state on ``step``."""
        return step >= self._layers[name].next_eigen_step

    # -------------------------------------------------------------- observe
    def observe_factors(
        self, name: str, step: int, factor_a: np.ndarray, factor_g: np.ndarray, a_repr=None, g_repr=None
    ) -> bool:
        """Record a performed factor update and measure drift (post-allreduce).

        ``a_repr`` / ``g_repr`` are the factors' representations, which
        :func:`factor_drift` needs to weigh a packed triangle as its matrix.

        With drift tracking on, must be called with the factors folded from
        the *allreduced* windows (every rank then holds all of them), so every
        rank observes identical values and derives the identical plan; with
        it off the factors are not read and may be ``None``.  A drift above
        ``drift_tol`` (the measured value is kept as ``last_drift``) schedules
        a second-order refresh for this very step and resets the stretched
        intervals; the return value says whether it did.
        """
        state = self._layers[name]
        state.last_factor_step = step
        triggered = False
        if self.drift_tol > 0.0 and state.snapshot_a is not None:
            drift = 0.5 * (
                factor_drift(factor_a, state.snapshot_a, a_repr) + factor_drift(factor_g, state.snapshot_g, g_repr)
            )
            state.last_drift = drift
            if drift > self.drift_tol and step < state.next_eigen_step:
                state.next_eigen_step = step
                state.eigen_interval = self.inv_update_freq
                state.factor_interval = self.factor_update_freq
                triggered = True
        state.next_factor_step = step + state.factor_interval
        return triggered

    def mark_second_order(self, name: str, step: int, factor_a: np.ndarray, factor_g: np.ndarray) -> None:
        """Record a performed second-order refresh and schedule the next one.

        When the layer proved stale-tolerant (its last measured drift stayed
        below ``drift_tol``), the eigen interval doubles up to
        ``max_staleness`` and the factor interval stretches proportionally;
        the current factors are snapshotted as the new drift reference.
        """
        state = self._layers[name]
        first = state.last_eigen_step < 0
        state.last_eigen_step = step
        if self.drift_tol > 0.0:
            if (
                self.max_staleness > self.inv_update_freq
                and state.last_drift is not None
                and state.last_drift <= self.drift_tol
            ):
                state.eigen_interval = min(state.eigen_interval * 2, self.max_staleness)
            state.factor_interval = min(
                state.eigen_interval,
                max(self.factor_update_freq, state.eigen_interval // self._ratio),
            )
            state.snapshot_a = factor_a.astype(np.float32, copy=True)
            state.snapshot_g = factor_g.astype(np.float32, copy=True)
        # The first refresh seeds the layer's phase; from there the interval carries it.
        state.next_eigen_step = self._on_phase(name, step + 1) if first else step + state.eigen_interval

    def _on_phase(self, name: str, at_step: int) -> int:
        """The first step at or after ``at_step`` on which the base cadence refreshes ``name``."""
        return next_refresh_step(self._offsets[name], at_step, self.factor_update_freq, self.inv_update_freq)

    def advance(self, step: int) -> Tuple[List[str], List[str]]:
        """End-of-step bookkeeping: the layers that passed over a ``(factor, eigen)`` base-cadence opportunity.

        A fold opportunity is a step :func:`~repro.kfac.assignment.folds_on`
        names.  A layer's eigen opportunities sit on its own phase -- the steps
        congruent to its next planned refresh, within that refresh's interval
        -- not on ``step % inv_update_freq == 0``, so a staggered plan skips
        nothing.
        """
        fold = folds_on(step, self.factor_update_freq, self.inv_update_freq)
        factor_skips = [name for name, state in self._layers.items() if fold and state.last_factor_step != step]
        eigen_skips = []
        for name, state in self._layers.items():
            ahead = state.next_eigen_step - step  # a refresh performed on this step leaves a whole interval ahead
            if ahead % self.inv_update_freq == 0 and ahead < state.eigen_interval:
                eigen_skips.append(name)
        return factor_skips, eigen_skips

    def base_factor_updates(self, steps: int) -> int:
        """Folds the base cadence performs over all layers in ``steps`` steps (the steps :func:`folds_on` names)."""
        cadence = (self.factor_update_freq, self.inv_update_freq)
        return len(self._layers) * sum(folds_on(step, *cadence) for step in range(steps))

    def base_eigen_updates(self, steps: int) -> int:
        """Refreshes the base cadence performs over all layers in ``steps`` steps: step 0, then each layer's phase."""
        if steps <= 0:
            return 0
        return sum(1 + max(0, -(-(steps - self._on_phase(name, 1)) // self.inv_update_freq)) for name in self._offsets)

    def plan_fingerprint(self, step: int) -> Tuple[Tuple[str, bool, bool], ...]:
        """Deterministic summary of this step's refresh plan, per layer.

        The plan is derived purely from allreduced factor state, so it must
        be identical on every rank; the runtime sanitizer
        (``REPRO_SANITIZE=1``) cross-checks this fingerprint between ranks at
        each ``KFAC.step()`` to catch plan divergence at the decision point
        instead of as a downstream deadlock.  Registration order of layers is
        preserved, so the tuple is comparable across ranks directly.
        """
        return tuple(
            (name, self.factors_due(name, step), self.second_order_due(name, step))
            for name in self._layers
        )

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Any]:
        """Complete plan state; restoring it resumes the schedule bit-identically."""

        def copy(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if array is None else array.copy()

        layers = {}
        for name, state in self._layers.items():
            layers[name] = {
                "next_factor_step": state.next_factor_step,
                "factor_interval": state.factor_interval,
                "next_eigen_step": state.next_eigen_step,
                "eigen_interval": state.eigen_interval,
                "snapshot_a": copy(state.snapshot_a),
                "snapshot_g": copy(state.snapshot_g),
                "last_drift": state.last_drift,
                "last_factor_step": state.last_factor_step,
                "last_eigen_step": state.last_eigen_step,
            }
        return {
            "factor_update_freq": self.factor_update_freq,
            "inv_update_freq": self.inv_update_freq,
            "drift_tol": self.drift_tol,
            "max_staleness": self.max_staleness,
            "layers": layers,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict`; the event counters older checkpoints also carry are ignored."""
        layers = state["layers"]
        missing = sorted(set(self._layers) - set(layers))
        unexpected = sorted(set(layers) - set(self._layers))
        if missing or unexpected:
            raise ValueError(
                "scheduler state does not match the registered layers "
                f"(missing: {missing}, unexpected: {unexpected})"
            )
        for name, entry in layers.items():
            target = self._layers[name]
            target.next_factor_step = int(entry["next_factor_step"])
            target.factor_interval = int(entry["factor_interval"])
            target.next_eigen_step = int(entry["next_eigen_step"])
            target.eigen_interval = int(entry["eigen_interval"])
            snap_a = entry["snapshot_a"]
            snap_g = entry["snapshot_g"]
            target.snapshot_a = None if snap_a is None else np.asarray(snap_a, dtype=np.float32)
            target.snapshot_g = None if snap_g is None else np.asarray(snap_g, dtype=np.float32)
            drift = entry["last_drift"]
            target.last_drift = None if drift is None else float(drift)
            target.last_factor_step = int(entry["last_factor_step"])
            target.last_eigen_step = int(entry["last_eigen_step"])

    def reset(self, at_step: int = 0) -> None:
        """Forget all drift/interval state and restart the base cadence.

        ``at_step`` positions the fresh plan mid-run: every layer's next
        fold is the first step at or after ``at_step`` that
        :func:`~repro.kfac.assignment.folds_on` names and its next refresh the
        first step on its offset, i.e. where the base cadence would fold and
        refresh next (used to resume checkpoints that carry no plan).
        """
        self._layers = {
            name: _LayerSchedule(self.factor_update_freq, self.inv_update_freq) for name in self._layers
        }
        if at_step <= 0:
            return  # step 0 folds and decomposes every layer
        cadence = (self.factor_update_freq, self.inv_update_freq)
        next_factor_step = next(step for step in itertools.count(at_step) if folds_on(step, *cadence))
        for name, state in self._layers.items():
            state.next_factor_step = next_factor_step
            state.next_eigen_step = self._on_phase(name, at_step)
