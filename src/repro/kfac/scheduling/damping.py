"""Levenberg-Marquardt adaptive Tikhonov damping (torch-kfac's update rule).

K-FAC's damping ``γ`` interpolates between the (ill-conditioned) natural
gradient and plain SGD.  The classic K-FAC recipe (Martens & Grosse 2015,
carried by the torch-kfac exemplar) treats ``γ`` as a trust-region radius:
compare the *actual* loss reduction of the last preconditioned step with the
reduction *predicted* from the local model, and

* if the prediction was good (``ρ > ρ_high``) the curvature model can be
  trusted — shrink the damping,
* if the step over-promised (``ρ < ρ_low``) — grow the damping,

clamped to ``[MIN_DAMPING, MAX_DAMPING]``.  The controller is fed the
rank-averaged loss, so every rank applies the identical adjustment and the
SPMD ranks stay in lock step; ``KFAC.step()`` counts the shrinks and grows in
the rank's tracer.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = ["AdaptiveDampingController", "MIN_DAMPING", "MAX_DAMPING"]

#: Clamp range for the adapted damping: wide enough for the LM rule to
#: explore, tight enough that a noisy ρ estimate cannot destroy the solve.
MIN_DAMPING = 1e-8
MAX_DAMPING = 10.0


class AdaptiveDampingController:
    """Accept/shrink damping control from the actual-vs-predicted loss ratio.

    Drive it from the training loop as a two-phase protocol:

    1. :meth:`observe_loss` at the *start* of ``KFAC.step(loss=...)`` —
       closes out the prediction recorded by the previous step and returns
       the damping the current step must use;
    2. :meth:`record_prediction` at the *end* of the step, with the same
       loss and the first-order predicted reduction of the update just
       written (``lr · ν · Σ⟨grad, precond⟩``).
    """

    def __init__(
        self,
        damping: float,
        shrink_factor: float = 0.9,
        rho_low: float = 0.25,
        rho_high: float = 0.75,
        min_damping: float = MIN_DAMPING,
        max_damping: float = MAX_DAMPING,
    ) -> None:
        if damping <= 0.0:
            raise ValueError("damping must be positive")
        if not 0.0 < shrink_factor < 1.0:
            raise ValueError("shrink_factor must be in (0, 1)")
        if not 0.0 <= rho_low < rho_high:
            raise ValueError("need 0 <= rho_low < rho_high")
        if not 0.0 < min_damping <= max_damping:
            raise ValueError("need 0 < min_damping <= max_damping")
        self.damping = float(min(max(damping, min_damping), max_damping))
        self.shrink_factor = float(shrink_factor)
        self.rho_low = float(rho_low)
        self.rho_high = float(rho_high)
        self.min_damping = float(min_damping)
        self.max_damping = float(max_damping)
        self.last_rho: Optional[float] = None
        self._pending: Optional[Tuple[float, float]] = None  # (loss, predicted reduction)

    # ------------------------------------------------------------- protocol
    def observe_loss(self, loss: float) -> float:
        """Close out the previous step's prediction against ``loss``; return γ."""
        pending = self._pending
        self._pending = None
        if pending is not None:
            prev_loss, predicted = pending
            if predicted > 0.0 and np.isfinite(loss) and np.isfinite(prev_loss):
                rho = (prev_loss - float(loss)) / predicted
                self.last_rho = rho
                if rho > self.rho_high:
                    self.damping *= self.shrink_factor
                elif rho < self.rho_low:
                    self.damping /= self.shrink_factor
                self.damping = float(min(max(self.damping, self.min_damping), self.max_damping))
        return self.damping

    def record_prediction(self, loss: float, predicted_reduction: float) -> None:
        """Remember this step's loss and its predicted reduction for the next step."""
        self._pending = (float(loss), float(predicted_reduction))

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Any]:
        return {"damping": self.damping, "last_rho": self.last_rho, "pending": self._pending}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` (older checkpoints' ``shrinks`` / ``grows`` counts are ignored)."""
        self.damping = float(state["damping"])
        rho = state["last_rho"]
        self.last_rho = None if rho is None else float(rho)
        pending = state["pending"]
        self._pending = None if pending is None else (float(pending[0]), float(pending[1]))
