"""Validated, serializable configuration for the KAISA preconditioner.

:class:`KFACConfig` is the single source of truth for K-FAC hyperparameters.
``KFAC.__init__`` takes one (or builds one from keyword hyperparameters); it
is a frozen dataclass that

* validates every field once, at construction time (the same rules apply
  whether the config comes from code, a checkpoint or a JSON file),
* round-trips through plain dictionaries (:meth:`to_dict` /
  :meth:`from_dict`) so it can be stored inside ``KFAC.state_dict()`` or an
  experiment manifest,
* provides the paper's three named operating points as presets
  (:meth:`mem_opt`, :meth:`comm_opt`, :meth:`hybrid`, section 3.1),
* places the work: :meth:`distribution_plan` is the only way to a
  :class:`~repro.kfac.strategy.DistributionPlan`, so ``grad_worker_frac`` and
  ``assignment_balance`` are the one statement of where each layer's work
  runs, for the preconditioner and the cost and memory models alike.

Construct the preconditioner from a config with ``KFAC(model, config)``;
per-run objects (the communicator, the grad scaler, skipped modules) stay
out of the config because they are not serializable state.  Nothing else
about the run is passed beside it: no strategy or precision object.  The
learning rate is not a field either: the KL clip uses the rate the optimizer
is about to apply, which the caller passes to ``KFAC.step(lr)`` every step.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..tensor import PrecisionPolicy
from .scheduling.solvers import available_solve_strategies, solve_strategy_class
from .strategy import DistributionPlan, LayerShapeInfo, build_plan

__all__ = ["KFACConfig"]


def _as_bool(name: str, value: Any) -> bool:
    """``value`` if it is a bool (``numpy.bool_`` included): ``bool("false")`` would be True."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")


def _as_float(name: str, value: Any) -> float:
    """``value`` if it is a real number that is not a bool: ``float(True)`` would be 1.0, ``float("0.1")`` 0.1."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, (bool, np.bool_)):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _as_int(name: str, value: Any) -> int:
    """``value`` if it is an integer that is not a bool, or a float with no fractional part: ``int(2.5)`` would be 2."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class KFACConfig:
    """Hyperparameters of one :class:`~repro.kfac.KFAC` instance.

    Attributes mirror the paper's notation: ``factor_update_freq`` is
    F_freq, ``inv_update_freq`` is K_freq (Table 2) and ``grad_worker_frac``
    places the work (section 3.1): ``1/world_size`` is MEM-OPT, ``1`` is
    COMM-OPT, anything in between is HYBRID-OPT.
    """

    factor_decay: float = 0.95
    damping: float = 0.003
    kl_clip: float = 0.001
    factor_update_freq: int = 10
    inv_update_freq: int = 100
    grad_worker_frac: float = 1.0
    precision: str = "fp32"
    assignment_balance: str = "compute"
    #: Fused-buffer size cap (MB) of the bucketed collective engine
    #: (:mod:`repro.distributed.collectives`) that carries every factor
    #: allreduce, eigen broadcast and gradient broadcast; the plan carries it.
    #: The cap changes the message count, never a result bit.
    bucket_cap_mb: float = 25.0
    #: Levenberg-Marquardt adaptive Tikhonov damping
    #: (:class:`~repro.kfac.scheduling.AdaptiveDampingController`); requires
    #: the trainer to feed the loss into ``KFAC.step(loss=...)``.
    adaptive_damping: bool = False
    #: Solve path: "inverse" (the default: damped inverses of Eq. 12 by
    #: float32 Cholesky on the factors' decomposer, two ``?symm`` per step)
    #: or "eigen" (the paper's eigenbasis path, Eqs. 15-17).  Both damp
    #: ``(π√γ, √γ/π)`` (:func:`~repro.kfac.kmath.split_damping`).
    solve_strategy: str = "inverse"

    def __post_init__(self) -> None:
        # Canonicalize numeric types first so consumers always see float/int/bool.
        for name in ("factor_decay", "damping", "kl_clip", "grad_worker_frac", "bucket_cap_mb"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        object.__setattr__(self, "adaptive_damping", _as_bool("adaptive_damping", self.adaptive_damping))
        for name in ("factor_update_freq", "inv_update_freq"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        # NaN fails no ``<=`` check below, so a non-finite float is refused here, by name.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.factor_update_freq < 1 or self.inv_update_freq < 1:
            raise ValueError("update frequencies must be >= 1")
        if self.solve_strategy not in available_solve_strategies():
            raise ValueError(
                f"solve_strategy must be one of {available_solve_strategies()}, got {self.solve_strategy!r}"
            )
        if not 0.0 < self.factor_decay <= 1.0:
            raise ValueError("factor_decay must be in (0, 1]")
        if self.damping <= 0.0:
            raise ValueError("damping must be positive")
        if self.kl_clip <= 0.0:
            raise ValueError("kl_clip must be positive")
        if not 0.0 < self.grad_worker_frac <= 1.0:
            raise ValueError("grad_worker_frac must be in (0, 1]")
        if self.assignment_balance not in ("compute", "memory"):
            raise ValueError("assignment_balance must be 'compute' or 'memory'")
        if self.bucket_cap_mb <= 0.0:
            raise ValueError("bucket_cap_mb must be positive")
        if not isinstance(self.precision, str):
            raise TypeError(f"precision is a policy name such as 'fp16', got {type(self.precision).__name__}")
        PrecisionPolicy.from_name(self.precision)  # raises on unknown names

    # ------------------------------------------------------------- presets
    @classmethod
    def mem_opt(cls, world_size: int, **overrides: Any) -> "KFACConfig":
        """MEM-OPT preset: one gradient worker per layer (Osawa et al. 2019)."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        return cls(grad_worker_frac=1.0 / world_size, **overrides)

    @classmethod
    def comm_opt(cls, **overrides: Any) -> "KFACConfig":
        """COMM-OPT preset: every rank is a gradient worker (Pauloski et al. 2020)."""
        return cls(grad_worker_frac=1.0, **overrides)

    @classmethod
    def hybrid(cls, grad_worker_frac: float = 0.5, **overrides: Any) -> "KFACConfig":
        """HYBRID-OPT preset with a tunable gradient-worker fraction."""
        return cls(grad_worker_frac=grad_worker_frac, **overrides)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for JSON or ``KFAC.state_dict()``."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KFACConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ValueError(f"unknown KFACConfig fields: {sorted(unknown)}")
        return cls(**data)

    def replace(self, **changes: Any) -> "KFACConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ----------------------------------------------------------- derived
    def precision_policy(self) -> PrecisionPolicy:
        return PrecisionPolicy.from_name(self.precision)

    def distribution_plan(self, layers: Sequence[LayerShapeInfo], world_size: int) -> DistributionPlan:
        """The :class:`~repro.kfac.strategy.DistributionPlan` a run with these hyperparameters follows.

        The one translation from hyperparameters to the plan, shared by
        :class:`~repro.kfac.KFAC` and the cost and memory models, and the one
        caller of :func:`~repro.kfac.strategy.build_plan`.
        ``grad_worker_frac`` and ``assignment_balance`` place the work
        (:func:`~repro.kfac.strategy.assign_workers`), and ``solve_strategy``
        names the :class:`~repro.kfac.scheduling.SolveStrategy` whose state
        each layer's gradient workers hold.
        """
        return build_plan(
            layers,
            world_size,
            self.grad_worker_frac,
            self.assignment_balance,
            self.precision_policy(),
            solver=solve_strategy_class(self.solve_strategy),
            factor_update_freq=self.factor_update_freq,
            inv_update_freq=self.inv_update_freq,
            bucket_cap_mb=self.bucket_cap_mb,
        )
