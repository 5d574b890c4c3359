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
about the run is passed beside it: no strategy or precision object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Union

from ..distributed.cost_model import EDR_INFINIBAND, choose_bucket_cap
from ..tensor import PrecisionPolicy
from .scheduling.solvers import available_solve_strategies, make_solve_strategy
from .strategy import DistributionPlan, LayerShapeInfo, WirePolicy, build_plan

__all__ = ["KFACConfig"]


@dataclass(frozen=True)
class KFACConfig:
    """Hyperparameters of one :class:`~repro.kfac.KFAC` instance.

    Attributes mirror the paper's notation: ``factor_update_freq`` is
    F_freq, ``inv_update_freq`` is K_freq (Table 2) and ``grad_worker_frac``
    places the work (section 3.1): ``1/world_size`` is MEM-OPT, ``1`` is
    COMM-OPT, anything in between is HYBRID-OPT.
    """

    lr: float = 0.1
    factor_decay: float = 0.95
    damping: float = 0.003
    kl_clip: float = 0.001
    factor_update_freq: int = 10
    inv_update_freq: int = 100
    grad_worker_frac: float = 1.0
    precision: str = "fp32"
    assignment_balance: str = "compute"
    compute_eigen_outer: bool = True
    #: Fused-buffer size cap (MB) of the bucketed collective engine
    #: (:mod:`repro.distributed.collectives`) that carries every factor
    #: allreduce, eigen broadcast and gradient broadcast, or the string
    #: ``"auto"`` to derive the cap from the alpha-beta network model and the
    #: layer shapes when the plan is built (:meth:`distribution_plan`,
    #: :func:`repro.distributed.cost_model.choose_bucket_cap`); the plan
    #: carries the number.  The cap changes the message count, never a result bit.
    bucket_cap_mb: Union[float, str] = 25.0
    #: Normalized Frobenius factor-drift tolerance; 0 disables drift
    #: tracking (fixed cadence).  Positive values stretch stale-tolerant
    #: layers' eigen intervals and pull refreshes forward on drift spikes.
    drift_tol: float = 0.0
    #: Cap (iterations) for a drift-stretched eigen interval; 0 means no
    #: stretching (drift can only accelerate refreshes).
    max_staleness: int = 0
    #: Levenberg-Marquardt adaptive Tikhonov damping
    #: (:class:`~repro.kfac.scheduling.AdaptiveDampingController`); requires
    #: the trainer to feed the loss into ``KFAC.step(loss=...)``.
    adaptive_damping: bool = False
    #: Apply the factor-trace π correction when damping the factors
    #: (:func:`~repro.kfac.kmath.tikhonov_pi`, after torch-kfac).
    damping_pi_correction: bool = False
    #: Per-layer solve path: "eigen" (the paper's default), "inverse"
    #: (direct damped inverses, Eq. 12) or "cg" (warm-started inverse-free
    #: conjugate gradients).
    solve_strategy: str = "eigen"
    #: Solver used for layers whose factor dimensions are both
    #: <= ``small_layer_dim`` (those layers skip O(F³) eigen entirely).
    small_layer_solver: str = "cg"
    #: Factor-dimension threshold below which ``small_layer_solver`` takes
    #: over; 0 disables the small-layer routing.
    small_layer_dim: int = 0
    #: Relative residual tolerance and iteration cap of the CG solver.
    cg_tol: float = 1e-8
    cg_max_iter: int = 50

    def __post_init__(self) -> None:
        # Canonicalize numeric types first so consumers always see float/int.
        for name, cast in (
            ("lr", float),
            ("factor_decay", float),
            ("damping", float),
            ("kl_clip", float),
            ("factor_update_freq", int),
            ("inv_update_freq", int),
            ("grad_worker_frac", float),
            ("compute_eigen_outer", bool),
            ("drift_tol", float),
            ("max_staleness", int),
            ("adaptive_damping", bool),
            ("damping_pi_correction", bool),
            ("small_layer_dim", int),
            ("cg_tol", float),
            ("cg_max_iter", int),
        ):
            object.__setattr__(self, name, cast(getattr(self, name)))
        if isinstance(self.bucket_cap_mb, str):
            if self.bucket_cap_mb != "auto":
                raise ValueError(
                    f"bucket_cap_mb must be a positive number or 'auto', got {self.bucket_cap_mb!r}"
                )
        else:
            object.__setattr__(self, "bucket_cap_mb", float(self.bucket_cap_mb))
        if self.factor_update_freq < 1 or self.inv_update_freq < 1:
            raise ValueError("update frequencies must be >= 1")
        if self.drift_tol < 0.0:
            raise ValueError("drift_tol must be >= 0")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.max_staleness and self.max_staleness < self.inv_update_freq:
            raise ValueError(
                f"max_staleness ({self.max_staleness}) caps the stretched eigen interval and "
                f"must be >= inv_update_freq ({self.inv_update_freq}), or 0 for no stretching"
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
        if not isinstance(self.bucket_cap_mb, str) and self.bucket_cap_mb <= 0.0:
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

    @classmethod
    def adaptive(cls, **overrides: Any) -> "KFACConfig":
        """Adaptive-scheduling preset: drift-driven refresh, LM damping, π, CG.

        Turns on every knob the :mod:`repro.kfac.scheduling` subsystem adds:
        drift tracking with interval stretching (capped at 8x the eigen
        cadence), Levenberg-Marquardt adaptive damping with the π correction,
        and CG solves for layers with factor dimensions <= 32.  Any field can
        still be overridden.
        """
        defaults: Dict[str, Any] = dict(
            drift_tol=0.05,
            adaptive_damping=True,
            damping_pi_correction=True,
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
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``.

        Four fields of earlier versions selected between code paths that no
        longer exist (``triangular_comm`` chose the wire form of a dense
        factor, which is now always its packed triangle; the last one forced
        every layer onto the dense representation, now a test oracle); they
        moved bytes or time, never a result, so they are dropped rather than
        rejected and old checkpoints and manifests stay loadable.  For
        the same reason a stored ``kernel_backend`` of ``"batched"`` (the one
        backend) or ``"reference"`` (the default of earlier checkpoints; its
        kernels are now the test oracle) is dropped; any other name raises.
        """
        retired = ("comm_overlap", "adaptive_schedule", "triangular_comm", "dense_factors")
        data = {key: value for key, value in data.items() if key not in retired}
        if data.get("kernel_backend") in ("batched", "reference"):
            del data["kernel_backend"]
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
        (:func:`~repro.kfac.strategy.assign_workers`).  ``bucket_cap_mb="auto"``
        is resolved here, once, from the alpha-beta model and the factors' wire
        payloads (each travels as it is stored: a dense one as its triangle,
        O(F) for a diagonal one).
        """
        layers = list(layers)
        policy = self.wire_policy()
        bucket_cap_mb = self.bucket_cap_mb
        if bucket_cap_mb == "auto":
            payloads = [policy.factor_bytes(layer, which) for layer in layers for which in "ag"]
            bucket_cap_mb = choose_bucket_cap(EDR_INFINIBAND, payloads, world_size=world_size)
        needs_eigen = {
            name: make_solve_strategy(name).needs_eigen for name in (self.solve_strategy, self.small_layer_solver)
        }
        return build_plan(
            layers,
            world_size,
            self.grad_worker_frac,
            self.assignment_balance,
            policy,
            factors_read_everywhere=self.drift_tol > 0.0 or self.damping_pi_correction,
            eigen_free=[layer.name for layer in layers if not needs_eigen[self.solver_name_for(layer)]],
            factor_update_freq=self.factor_update_freq,
            inv_update_freq=self.inv_update_freq,
            bucket_cap_mb=bucket_cap_mb,
        )
