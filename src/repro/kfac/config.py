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
from .strategy import DistributionPlan, LayerShapeInfo, WirePolicy, build_plan

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
    #: Cache Eq. 16's damped eigenvalue outer product once per refresh
    #: (section 4.4); read only on the "eigen" path.
    compute_eigen_outer: bool = True
    #: Fused-buffer size cap (MB) of the bucketed collective engine
    #: (:mod:`repro.distributed.collectives`) that carries every factor
    #: allreduce, eigen broadcast and gradient broadcast; the plan carries it.
    #: The cap changes the message count, never a result bit.
    bucket_cap_mb: float = 25.0
    #: Normalized Frobenius factor-drift tolerance; 0 disables drift
    #: tracking (fixed cadence).  Positive values stretch stale-tolerant
    #: layers' eigen intervals and pull refreshes forward on drift spikes.
    drift_tol: float = 0.0
    #: Cap (iterations) for a drift-stretched eigen interval, above
    #: ``inv_update_freq``; 0 means no stretching (drift can only accelerate
    #: refreshes).  Read only with ``drift_tol > 0``.
    max_staleness: int = 0
    #: Levenberg-Marquardt adaptive Tikhonov damping
    #: (:class:`~repro.kfac.scheduling.AdaptiveDampingController`); requires
    #: the trainer to feed the loss into ``KFAC.step(loss=...)``.
    adaptive_damping: bool = False
    #: Per-layer solve path: "inverse" (the default: damped inverses of
    #: Eq. 12 by float32 Cholesky on the factors' decomposer, two ``?symm``
    #: per step), "eigen" (the paper's eigenbasis path, Eqs. 15-17) or "cg"
    #: (warm-started inverse-free conjugate gradients).  Every path damps
    #: ``(π√γ, √γ/π)`` (:func:`~repro.kfac.kmath.split_damping`).
    solve_strategy: str = "inverse"
    #: Solver used for layers whose factor dimensions are both
    #: <= ``small_layer_dim`` (those layers skip O(F³) eigen entirely); it
    #: must differ from ``solve_strategy``.
    small_layer_solver: str = "cg"
    #: Factor-dimension threshold below which ``small_layer_solver`` takes
    #: over; 0 disables the small-layer routing.
    small_layer_dim: int = 0
    #: Relative residual tolerance and iteration cap of the CG solver; read
    #: only when a path is "cg".
    cg_tol: float = 1e-8
    cg_max_iter: int = 50

    def __post_init__(self) -> None:
        # Canonicalize numeric types first so consumers always see float/int/bool.
        floats = ("factor_decay", "damping", "kl_clip", "grad_worker_frac", "bucket_cap_mb", "drift_tol", "cg_tol")
        for name in floats:
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        for name in ("compute_eigen_outer", "adaptive_damping"):
            object.__setattr__(self, name, _as_bool(name, getattr(self, name)))
        for name in ("factor_update_freq", "inv_update_freq", "max_staleness", "small_layer_dim", "cg_max_iter"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        # NaN fails no ``<=`` check below, so a non-finite float is refused here, by name.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.factor_update_freq < 1 or self.inv_update_freq < 1:
            raise ValueError("update frequencies must be >= 1")
        if self.drift_tol < 0.0:
            raise ValueError("drift_tol must be >= 0")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.max_staleness and self.max_staleness <= self.inv_update_freq:
            raise ValueError(
                f"max_staleness ({self.max_staleness}) caps the stretched eigen interval and "
                f"must be > inv_update_freq ({self.inv_update_freq}), or 0 for no stretching"
            )
        for field_name in ("solve_strategy", "small_layer_solver"):
            value = getattr(self, field_name)
            if value not in available_solve_strategies():
                raise ValueError(
                    f"{field_name} must be one of {available_solve_strategies()}, got {value!r}"
                )
        if self.small_layer_dim < 0:
            raise ValueError("small_layer_dim must be >= 0")
        if self.cg_tol <= 0.0:
            raise ValueError("cg_tol must be positive")
        if self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")
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
        self._refuse_dead_options()

    def _refuse_dead_options(self) -> None:
        """Refuse a non-default value that no reachable solve path reads, naming the field and the paths.

        The reachable paths are ``solve_strategy``, and ``small_layer_solver``
        when ``small_layer_dim > 0`` routes layers to it.
        """
        defaults = {field.name: field.default for field in dataclasses.fields(self)}
        paths = sorted({self.solve_strategy} | ({self.small_layer_solver} if self.small_layer_dim > 0 else set()))

        def refuse(name: str, reason: str) -> None:
            raise ValueError(f"{name}={getattr(self, name)!r} is never read: {reason} (solve paths {paths})")

        if not self.compute_eigen_outer and "eigen" not in paths:
            refuse("compute_eigen_outer", "only the eigen path caches an outer product")
        for name in ("cg_tol", "cg_max_iter"):
            if getattr(self, name) != defaults[name] and "cg" not in paths:
                refuse(name, "only the cg path iterates")
        if self.small_layer_dim == 0 and self.small_layer_solver != defaults["small_layer_solver"]:
            refuse("small_layer_solver", "small_layer_dim=0 routes no layer to it")
        if self.small_layer_dim > 0 and self.small_layer_solver == self.solve_strategy:
            refuse("small_layer_dim", f"it routes small layers to {self.solve_strategy!r}, the solve_strategy itself")
        if self.max_staleness > 0 and self.drift_tol == 0.0:
            refuse("max_staleness", "drift_tol=0 stretches no interval")

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

    @classmethod
    def adaptive(cls, **overrides: Any) -> "KFACConfig":
        """Adaptive-scheduling preset: drift-driven refresh, LM damping, CG, on the eigen path.

        Turns on every knob the :mod:`repro.kfac.scheduling` subsystem adds:
        drift tracking with interval stretching (capped at 8x the eigen
        cadence), Levenberg-Marquardt adaptive damping, and CG solves for
        layers with factor dimensions <= 32.  The other
        layers take the eigen path: the controller moves γ every step, which
        the eigen path applies at once, while an inverse keeps the γ of its
        refresh.  Any field can still be overridden.
        """
        defaults: Dict[str, Any] = dict(
            solve_strategy="eigen",
            drift_tol=0.05,
            adaptive_damping=True,
            small_layer_solver="cg",
            small_layer_dim=32,
        )
        defaults.update(overrides)
        if "max_staleness" not in defaults:
            inv_freq = int(
                defaults.get("inv_update_freq", cls.__dataclass_fields__["inv_update_freq"].default)
            )
            defaults["max_staleness"] = 8 * inv_freq
        return cls(**defaults)

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

    def wire_policy(self) -> WirePolicy:
        """How state is stored and travels: the precision policy and ``compute_eigen_outer``."""
        return WirePolicy(self.precision_policy(), self.compute_eigen_outer)

    def solver_name_for(self, layer) -> str:
        """Which solve strategy preconditions ``layer`` (anything with ``a_dim`` / ``g_dim``).

        Layers whose factor dimensions both fit under ``small_layer_dim`` are
        routed to ``small_layer_solver`` (skipping O(F³) eigen work entirely);
        everything else uses the configured ``solve_strategy``.
        """
        if self.small_layer_dim > 0 and max(layer.a_dim, layer.g_dim) <= self.small_layer_dim:
            return self.small_layer_solver
        return self.solve_strategy

    def distribution_plan(self, layers: Sequence[LayerShapeInfo], world_size: int) -> DistributionPlan:
        """The :class:`~repro.kfac.strategy.DistributionPlan` a run with these hyperparameters follows.

        The one translation from hyperparameters to the plan, shared by
        :class:`~repro.kfac.KFAC` and the cost and memory models, and the one
        caller of :func:`~repro.kfac.strategy.build_plan`.
        ``grad_worker_frac`` and ``assignment_balance`` place the work
        (:func:`~repro.kfac.strategy.assign_workers`), and
        :meth:`solver_name_for` names each layer's
        :class:`~repro.kfac.scheduling.SolveStrategy`, whose state its
        gradient workers hold.  Every rank holds every running factor only
        when ``drift_tol > 0`` (the drift schedule reads them all); each path
        forms its damping's π from what its ranks hold.
        """
        layers = list(layers)
        return build_plan(
            layers,
            world_size,
            self.grad_worker_frac,
            self.assignment_balance,
            self.wire_policy(),
            factors_read_everywhere=self.drift_tol > 0.0,
            solvers={layer.name: solve_strategy_class(self.solver_name_for(layer)) for layer in layers},
            factor_update_freq=self.factor_update_freq,
            inv_update_freq=self.inv_update_freq,
            bucket_cap_mb=self.bucket_cap_mb,
        )
