"""Loss scaling for mixed-precision training (AMP GradScaler emulation).

KAISA integrates with the training GradScaler in two ways (paper section 4.1):

* the usual unscale-before-step path for the optimizer, and
* unscaling the ``G`` Kronecker factors, because the backward-pass gradients
  that produce ``G`` carry the current loss scale and the scale changes over
  training, which would otherwise corrupt the running factor average.
"""

from __future__ import annotations

import numpy as np

from .optimizer import Optimizer

__all__ = ["GradScaler"]


class GradScaler:
    """Dynamic loss scaler mirroring ``torch.cuda.amp.GradScaler`` semantics."""

    def __init__(
        self,
        init_scale: float = 2.0 ** 16,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 2000,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self._scale = float(init_scale)
        self.growth_factor = float(growth_factor)
        self.backoff_factor = float(backoff_factor)
        self.growth_interval = int(growth_interval)
        self._growth_tracker = 0
        self._found_inf = False
        self._unscaled = False

    def get_scale(self) -> float:
        """Current loss scale value."""
        return self._scale if self.enabled else 1.0

    def scale(self, loss):
        """Scale a loss tensor (or float) by the current loss scale."""
        if not self.enabled:
            return loss
        return loss * self._scale

    def unscale_(self, optimizer: Optimizer) -> None:
        """Divide all gradients held by ``optimizer`` by the loss scale; they end up float32.

        One cast-and-gather, one scale pass and one finiteness reduction per
        run of the optimizer's block iterator; each gradient is rebound to its
        view of the run's fresh buffer (the array it was bound to is not
        written).
        """
        if not self.enabled or self._unscaled:
            return
        inv = 1.0 / self._scale
        for run in optimizer.runs():
            flat = run.grads()
            flat *= inv
            if not np.isfinite(flat).all():
                self._found_inf = True
            for param, grad in zip(run.params, run.shaped(flat)):
                param.grad = grad
        self._unscaled = True

    def step(self, optimizer: Optimizer) -> bool:
        """Unscale (if needed) and step the optimizer; returns False if skipped."""
        if not self.enabled:
            optimizer.step()
            return True
        if not self._unscaled:
            self.unscale_(optimizer)
        if self._found_inf:
            return False
        optimizer.step()
        return True

    def update(self) -> None:
        """Adjust the loss scale after a step (backoff on overflow, grow otherwise)."""
        if not self.enabled:
            return
        if self._found_inf:
            self._scale = max(self._scale * self.backoff_factor, 1.0)
            self._growth_tracker = 0
        else:
            self._growth_tracker += 1
            if self._growth_tracker >= self.growth_interval:
                self._scale *= self.growth_factor
                self._growth_tracker = 0
        self._found_inf = False
        self._unscaled = False

    def state_dict(self) -> dict:
        """Mutable loss-scale state for checkpoint/resume."""
        return {
            "scale": self._scale,
            "growth_tracker": self._growth_tracker,
            "found_inf": self._found_inf,
            "unscaled": self._unscaled,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output."""
        self._scale = float(state["scale"])
        self._growth_tracker = int(state["growth_tracker"])
        self._found_inf = bool(state["found_inf"])
        self._unscaled = bool(state["unscaled"])
