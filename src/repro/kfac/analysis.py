"""Analytic iteration-time model for distributed K-FAC (Figures 6, 7 and 8).

The paper measures average iteration time and the per-stage breakdown of
``KFAC.step()`` on 64 V100 GPUs, and projects end-to-end speedups up to 128
A100s.  This module regenerates those results from first principles: given
the layer shapes of a model, a distribution strategy, the K-FAC update
frequencies and a :class:`PerformanceModel`, it computes per-rank time for
every stage of Figure 3 and reports the busiest rank (the makespan) as the
iteration time.  Infrequent stages (factor update, eigen decomposition) are
amortised over their update intervals exactly as the paper's averages are.

Nothing here decides who computes, who holds or what moves: a workload spec
carries the :class:`~repro.kfac.KFACConfig` the engine takes, every model reads
the :class:`~repro.kfac.strategy.DistributionPlan` that config builds
(:meth:`KFACWorkloadSpec.plan`) and buckets its specs under the plan's own cap
with the collective engine's own grouping, so modeled messages, bytes and
placement are the engine's for every knob and only latency, bandwidth and flop
rates are modeled.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..distributed.cost_model import PerformanceModel, amortized_update_time
from .config import KFACConfig
from .factors import FactorRepr
from .strategy import DistributionPlan, LayerShapeInfo

__all__ = [
    "repr_eigen_time",
    "repr_basis_apply_flops",
    "KFACWorkloadSpec",
    "IterationBreakdown",
    "IterationTimeModel",
    "CommSchedule",
    "model_comm_schedule",
    "apply_measured_fractions",
]


def repr_eigen_time(perf: PerformanceModel, repr_: FactorRepr, dtype_bytes: int) -> float:
    """Modeled decomposition time of one factor in its representation."""
    if repr_.kind == "diagonal":
        return perf.diagonal_eigen_time(repr_.dim, dtype_bytes)
    if repr_.kind == "block_diagonal":
        return perf.block_eigen_time(repr_.num_blocks, repr_.block_size, dtype_bytes)
    return perf.eigen_decomposition_time(repr_.dim, dtype_bytes)


def repr_basis_apply_flops(perf: PerformanceModel, repr_: FactorRepr, other_dim: int) -> float:
    """FLOPs of applying one factor's eigenbasis to a ``repr_.dim x other_dim`` slab.

    A dense basis is a full matmul; a diagonal factor's identity basis is
    free (the contraction keeps only the elementwise eigenvalue multiply);
    a block-diagonal basis is ``num_blocks`` small matmuls.
    """
    if repr_.kind == "diagonal":
        return 0.0
    if repr_.kind == "block_diagonal":
        return float(repr_.num_blocks) * perf.matmul_flops(repr_.block_size, other_dim, repr_.block_size)
    return perf.matmul_flops(repr_.dim, other_dim, repr_.dim)


@dataclass(frozen=True)
class KFACWorkloadSpec:
    """Everything the iteration-time model needs to know about one application.

    ``config`` is the :class:`~repro.kfac.KFACConfig` the engine would run
    with -- cadences, precision, solvers, balance, bucket cap, every knob; its
    ``grad_worker_frac`` is replaced by the one each query passes.
    """

    name: str
    layers: Sequence[LayerShapeInfo]
    param_count: int  # total trainable parameters (for the gradient allreduce)
    local_batch_size: int
    baseline_compute_time: float  # forward+backward+update time per iteration, per rank (s)
    config: KFACConfig
    samples_per_input: float = 1.0  # rows contributed to the factors per example (spatial positions for convs)
    grad_accumulation_steps: int = 1
    #: Performed-vs-base-cadence update ratios (1.0 = the fixed schedule).
    #: :func:`apply_measured_fractions` sets them from what a live
    #: preconditioner counted, to model the skipped factor/eigen work and
    #: communication.
    factor_update_fraction: float = 1.0
    eigen_update_fraction: float = 1.0

    def plan(self, world_size: int, grad_worker_frac: float) -> DistributionPlan:
        """The plan :class:`~repro.kfac.KFAC` built from ``config`` follows at this operating point."""
        return self.config.replace(grad_worker_frac=grad_worker_frac).distribution_plan(self.layers, world_size)

    @property
    def dtype_bytes(self) -> int:
        """Element size of the training precision (factors, and the data-parallel gradients)."""
        return np.dtype(self.config.precision_policy().factor_dtype).itemsize

    @property
    def factor_bytes(self) -> int:
        """Total bytes of all Kronecker factors in their stored representation.

        Dense factors contribute the ``n(n+1)/2`` elements of their packed
        triangle; structured ones (diagonal / block-diagonal,
        :class:`~repro.kfac.factors.FactorRepr`) their packed O(F) element
        counts, matching what the handlers actually allocate.
        """
        policy = self.config.wire_policy()
        return sum(policy.factor_bytes(layer) for layer in self.layers)

    @property
    def gradient_bytes(self) -> int:
        return self.param_count * self.dtype_bytes


@dataclass
class IterationBreakdown:
    """Per-iteration (amortised) time of each stage, for the busiest rank."""

    baseline_compute: float = 0.0
    gradient_allreduce: float = 0.0
    factor_compute: float = 0.0
    factor_allreduce: float = 0.0
    eigen_decomposition: float = 0.0
    eigen_broadcast: float = 0.0
    precondition: float = 0.0
    grad_broadcast: float = 0.0
    scale_and_update: float = 0.0

    @property
    def kfac_overhead(self) -> float:
        """Per-iteration K-FAC overhead (everything except the baseline stages)."""
        return (
            self.factor_compute
            + self.factor_allreduce
            + self.eigen_decomposition
            + self.eigen_broadcast
            + self.precondition
            + self.grad_broadcast
            + self.scale_and_update
        )

    @property
    def total(self) -> float:
        return self.baseline_compute + self.gradient_allreduce + self.kfac_overhead

    def as_dict(self) -> Dict[str, float]:
        return {
            "baseline_compute": self.baseline_compute,
            "gradient_allreduce": self.gradient_allreduce,
            "factor_compute": self.factor_compute,
            "factor_allreduce": self.factor_allreduce,
            "eigen_decomposition": self.eigen_decomposition,
            "eigen_broadcast": self.eigen_broadcast,
            "precondition": self.precondition,
            "grad_broadcast": self.grad_broadcast,
            "scale_and_update": self.scale_and_update,
        }


class IterationTimeModel:
    """Computes per-rank stage times and iteration makespans for KAISA runs."""

    def __init__(self, perf: Optional[PerformanceModel] = None) -> None:
        self.perf = perf if perf is not None else PerformanceModel()

    # ------------------------------------------------------------ baseline
    def baseline_iteration_time(self, spec: KFACWorkloadSpec, world_size: int) -> float:
        """Iteration time of the original (first-order) optimizer: compute + gradient allreduce."""
        allreduce = self.perf.allreduce_time(spec.gradient_bytes, world_size) / max(spec.grad_accumulation_steps, 1)
        return spec.baseline_compute_time + allreduce

    # ---------------------------------------------------------------- KAISA
    def stage_times_per_rank(
        self, spec: KFACWorkloadSpec, world_size: int, grad_worker_frac: float
    ) -> Dict[str, np.ndarray]:
        """Amortised per-iteration time of every K-FAC stage, per rank.

        Placement and message sizes are the plan's; each layer's messages are
        priced unfused -- one broadcast per ``(src, group)`` channel of the
        layer -- which is the per-layer schedule Figures 6-8 were measured on
        (:func:`model_comm_schedule` prices the bucketed one).
        """
        plan = spec.plan(world_size, grad_worker_frac)
        f_freq, k_freq = plan.factor_update_freq, plan.inv_update_freq
        dtype_b = spec.dtype_bytes

        times: Dict[str, np.ndarray] = {
            name: np.zeros(world_size)
            for name in (
                "factor_compute",
                "factor_allreduce",
                "eigen_decomposition",
                "eigen_broadcast",
                "precondition",
                "grad_broadcast",
                "scale_and_update",
            )
        }

        # --- factor computation (data-parallel, identical on every rank) ----
        rows = spec.local_batch_size * spec.samples_per_input
        # Each factor's accumulation writes exactly its packed element count
        # per row (dense: one triangle of the outer product, which is what
        # ``syrk`` computes; diagonal: the squared-row sum; block-diagonal:
        # per-block outer products).
        factor_flops = sum(2.0 * rows * (l.a_repr.packed_numel + l.g_repr.packed_numel) for l in spec.layers)
        times["factor_compute"][:] = amortized_update_time(
            self.perf.compute_time(factor_flops, dtype_b), f_freq, spec.factor_update_fraction
        )

        # --- factor allreduce (all ranks, bucketed into one volume) ---------
        factor_bytes = sum(
            _nbytes(shape, dtype) for entries in plan.factor_round.values() for _, shape, dtype in entries
        )
        times["factor_allreduce"][:] = amortized_update_time(
            self.perf.allreduce_time(factor_bytes, world_size), f_freq, spec.factor_update_fraction
        )

        # --- eigen decomposition (the plan's decomposers only), eigen broadcast
        decomposition, broadcast = self._refresh_times(spec, plan, [layer.name for layer in spec.layers])
        per_iteration = amortized_update_time(1.0, k_freq, spec.eigen_update_fraction)
        times["eigen_decomposition"] = per_iteration * decomposition
        times["eigen_broadcast"] = per_iteration * broadcast

        for layer in spec.layers:
            group = plan.groups[layer.name]
            # --- preconditioned-gradient broadcast (every iteration) --------
            times["grad_broadcast"] += self._broadcast_times(plan.gradient_round[layer.name], world_size)

            # --- gradient preconditioning (gradient workers, every iteration)
            # Two eigenbasis rotations per side (into and out of the basis);
            # a diagonal factor's identity basis contributes none.
            precondition_flops = 2.0 * (
                repr_basis_apply_flops(self.perf, layer.g_repr, layer.a_dim)
                + repr_basis_apply_flops(self.perf, layer.a_repr, layer.g_dim)
            )
            times["precondition"][list(group.grad_workers)] += self.perf.compute_time(precondition_flops, dtype_b)

            # --- scaling / writing the update back --------------------------
            times["scale_and_update"] += self.perf.compute_time(4.0 * layer.grad_numel, dtype_b)

        return times

    def _broadcast_times(self, specs, world_size: int) -> np.ndarray:
        """Per-rank time of one layer's messages, one broadcast per ``(src, group)`` channel."""
        times = np.zeros(world_size)
        channels: Dict[Tuple, int] = {}
        for message in specs:
            channel = (message.src, message.group)
            channels[channel] = channels.get(channel, 0) + _nbytes(message.shape, message.dtype)
        for (_, members), nbytes in channels.items():
            times[list(members)] += self.perf.broadcast_time(nbytes, len(members))
        return times

    def _refresh_times(
        self, spec: KFACWorkloadSpec, plan: DistributionPlan, names: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-rank ``(decomposition, eigen broadcast)`` time of one step that refreshes the layers ``names``."""
        decomposition, broadcast = np.zeros(plan.world_size), np.zeros(plan.world_size)
        for name in names:
            layer = plan.groups[name].layer
            for which in ("a", "g"):
                duration = repr_eigen_time(self.perf, layer.factor_repr(which), spec.dtype_bytes)
                decomposition[list(plan.decomposers[name, which])] += duration
            broadcast += self._broadcast_times(plan.eigen_round[name], plan.world_size)
        return decomposition, broadcast

    def refresh_interval(self, spec: KFACWorkloadSpec, world_size: int, grad_worker_frac: float) -> Dict[str, float]:
        """What the plan's ``refresh_offsets`` make of one interval's eigen stage, for the busiest rank.

        ``single_refresh_step`` is the decomposition + eigen-broadcast time of
        a step that refreshes every layer (the schedule with every offset 0,
        and step 0 of any run); ``heaviest_step`` the same for the heaviest
        step of the plan's interval; ``touched_steps`` of ``interval_steps``
        carry a fold or a decomposition.
        """
        plan = spec.plan(world_size, grad_worker_frac)
        per_step = plan.steady_interval()
        return {
            "single_refresh_step": float(np.max(sum(self._refresh_times(spec, plan, list(plan.groups))))),
            "heaviest_step": max(float(np.max(sum(self._refresh_times(spec, plan, a.refresh)))) for a in per_step),
            "touched_steps": sum(1 for actions in per_step if actions.fold or actions.refresh),
            "interval_steps": plan.inv_update_freq,
        }

    def kfac_breakdown(
        self, spec: KFACWorkloadSpec, world_size: int, grad_worker_frac: float
    ) -> IterationBreakdown:
        """Stage breakdown for the busiest rank (the paper's reported averages)."""
        per_rank = self.stage_times_per_rank(spec, world_size, grad_worker_frac)
        totals = np.zeros(world_size)
        for values in per_rank.values():
            totals += values
        busiest = int(np.argmax(totals))
        gradient_allreduce = self.perf.allreduce_time(spec.gradient_bytes, world_size) / max(
            spec.grad_accumulation_steps, 1
        )
        return IterationBreakdown(
            baseline_compute=spec.baseline_compute_time,
            gradient_allreduce=gradient_allreduce,
            factor_compute=float(per_rank["factor_compute"][busiest]),
            factor_allreduce=float(per_rank["factor_allreduce"][busiest]),
            eigen_decomposition=float(per_rank["eigen_decomposition"][busiest]),
            eigen_broadcast=float(per_rank["eigen_broadcast"][busiest]),
            precondition=float(per_rank["precondition"][busiest]),
            grad_broadcast=float(per_rank["grad_broadcast"][busiest]),
            scale_and_update=float(per_rank["scale_and_update"][busiest]),
        )

    def kaisa_iteration_time(self, spec: KFACWorkloadSpec, world_size: int, grad_worker_frac: float) -> float:
        """Average KAISA iteration time (baseline + amortised K-FAC overhead)."""
        return self.kfac_breakdown(spec, world_size, grad_worker_frac).total

    def speedup_over_baseline(
        self,
        spec: KFACWorkloadSpec,
        world_size: int,
        grad_worker_frac: float,
        baseline_iterations: int,
        kaisa_iterations: int,
    ) -> float:
        """Projected end-to-end speedup (Figure 8): iteration counts x iteration times."""
        baseline_total = baseline_iterations * self.baseline_iteration_time(spec, world_size)
        kaisa_total = kaisa_iterations * self.kaisa_iteration_time(spec, world_size, grad_worker_frac)
        return baseline_total / kaisa_total


# ---------------------------------------------------------------------------
# The bucketed communication schedule (the overlap engine, modeled)
# ---------------------------------------------------------------------------


def _nbytes(shape: Sequence[int], dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


@dataclass(frozen=True)
class CommSchedule:
    """Modeled collective schedule of one K-FAC configuration.

    ``messages_per_update`` / ``comm_bytes_per_update`` count the collective
    messages issued for one full K-FAC update cycle — one factor allreduce
    round + one eigen broadcast round + one preconditioned-gradient broadcast
    round — summed over all ranks' distinct collectives (a fused bucket counts
    once); ``rounds`` splits them as ``{"factor" | "eigen" | "gradient":
    (messages, bytes)}``.  These are the engine's own counts: each rank's
    ``comm/*`` counters record the messages whose group contains it.
    ``kfac_comm_time`` is the busiest rank's amortised per-iteration K-FAC
    communication time; ``iteration_time`` adds the compute stages and the
    data-parallel gradient allreduce so schedules can be compared end to end.

    ``exposed_comm_time`` / ``hidden_comm_time`` split the busiest rank's
    per-iteration communication into the part left on the critical path and
    the part hidden behind backward compute.  A ``hooked`` schedule (the
    backward-hook gradient pipeline) posts the factor allreduces and the
    data-parallel gradient averaging while backprop still runs, hiding them
    inside the backward window; step-time schedules expose everything.
    """

    strategy: str
    world_size: int
    messages_per_update: int
    comm_bytes_per_update: int
    kfac_comm_time: float
    iteration_time: float
    hooked: bool = False
    exposed_comm_time: float = 0.0
    hidden_comm_time: float = 0.0
    rounds: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def model_comm_schedule(
    spec: KFACWorkloadSpec,
    world_size: int,
    grad_worker_frac: float,
    perf: Optional[PerformanceModel] = None,
    hooked: bool = False,
) -> CommSchedule:
    """Price the collective schedule the engine issues for ``spec``'s plan.

    The messages are :meth:`~repro.kfac.strategy.DistributionPlan.messages`:
    the plan's specs through the engine's own grouping, where tensors sharing
    a communication channel — the world for factor allreduces, a ``(src,
    group)`` pair for broadcasts — fuse into buckets capped at the plan's
    ``bucket_cap_mb``, one latency term per bucket.  A cap below any
    tensor is the unfused schedule: one message per factor matrix, per packed
    eigen decomposition (plus the cached outer product where one rank ships
    it) and per preconditioned-gradient broadcast.  Bytes moved do not depend
    on the cap; only message counts (alpha terms) do.  A cap sweep prices
    ``spec.config.replace(bucket_cap_mb=...)``.

    ``hooked=True`` models the backward-hook gradient pipeline: the factor
    allreduces (bucketed in reverse layer order, the order backward produces
    them) and the data-parallel gradient averaging are posted while backprop
    still runs, so up to :meth:`PerformanceModel.backward_window` seconds of
    that traffic are hidden; ``exposed_comm_time``/``hidden_comm_time`` report
    the split and ``iteration_time`` charges only the exposed part.  Eigen and
    preconditioned-gradient broadcasts stay inside ``KFAC.step()`` and remain
    exposed in every schedule.
    """
    perf = perf if perf is not None else PerformanceModel()
    plan = spec.plan(world_size, grad_worker_frac)
    messages = plan.messages(hooked=hooked)
    rounds = {label: (len(sent), sum(nbytes for _, nbytes in sent)) for label, sent in messages.items()}

    # --- factor allreduce (world-wide; every rank participates) ------------
    # The round the hooked pipeline can hide, so its time is kept apart from
    # the step-time broadcast rounds below.
    factor_time = sum(perf.allreduce_time(nbytes, len(members)) for members, nbytes in messages["factor"])
    factor_per_iter = amortized_update_time(factor_time, plan.factor_update_freq, spec.factor_update_fraction)

    # --- eigen broadcast (per refresh), gradient broadcast (every step) ----
    comm_time = np.zeros(world_size)  # per-rank amortised time of the step-time rounds
    for members, nbytes in messages["eigen"]:
        comm_time[list(members)] += amortized_update_time(
            perf.broadcast_time(nbytes, len(members)), plan.inv_update_freq, spec.eigen_update_fraction
        )
    for members, nbytes in messages["gradient"]:
        comm_time[list(members)] += perf.broadcast_time(nbytes, len(members))

    step_comm_max = float(np.max(comm_time)) if world_size else 0.0

    # --- end-to-end iteration time: identical compute, differing comm ------
    model = IterationTimeModel(perf)
    breakdown = model.kfac_breakdown(spec, world_size, grad_worker_frac)
    compute_no_allreduce = (
        breakdown.baseline_compute
        + breakdown.factor_compute
        + breakdown.eigen_decomposition
        + breakdown.precondition
        + breakdown.scale_and_update
    )
    grad_allreduce = breakdown.gradient_allreduce
    # The rounds a hook-driven schedule posts during backward: the factor
    # allreduce and the data-parallel gradient averaging.  Step-time rounds
    # (eigen / preconditioned-gradient broadcasts) are always exposed.
    overlappable = factor_per_iter + grad_allreduce
    if hooked:
        hidden = min(overlappable, perf.backward_window(spec.baseline_compute_time))
    else:
        hidden = 0.0
    exposed = overlappable - hidden + step_comm_max
    # kfac_comm_time always excludes the data-parallel gradient allreduce so
    # the field stays comparable across hooked and step-time schedules; the
    # hidden window is attributed to the factor round proportionally.
    exposed_fraction = 1.0 - (hidden / overlappable if overlappable > 0.0 else 0.0)
    kfac_comm_time = factor_per_iter * exposed_fraction + step_comm_max
    return CommSchedule(
        strategy=plan.scheme,
        world_size=world_size,
        messages_per_update=sum(count for count, _ in rounds.values()),
        comm_bytes_per_update=sum(nbytes for _, nbytes in rounds.values()),
        kfac_comm_time=float(kfac_comm_time),
        iteration_time=float(compute_no_allreduce + exposed),
        hooked=bool(hooked),
        exposed_comm_time=float(exposed),
        hidden_comm_time=float(hidden),
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Measured refresh decisions -> modeled update fractions
# ---------------------------------------------------------------------------


def apply_measured_fractions(spec: KFACWorkloadSpec, preconditioner) -> KFACWorkloadSpec:
    """A copy of ``spec`` carrying the update fractions ``preconditioner`` (a live :class:`~repro.kfac.KFAC`) measured.

    The performed factor and eigen updates are the ``kfac/factor_updates/<layer>``
    and ``kfac/eigen_updates/<layer>`` counters of its rank's registry, the
    expected ones what the plan's base cadence performs over the same steps
    (:meth:`~repro.kfac.strategy.DistributionPlan.base_updates`): exactly 1.0
    while ``drift_tol`` is 0.  The
    registry counts for the life of the communicator, so measure a
    preconditioner built on it from step 0.  Feed the result back into
    :class:`IterationTimeModel` / :func:`model_comm_schedule` to model the
    iteration time of the adaptive schedule: skipped factor updates shrink
    the amortised factor compute and allreduce terms, skipped eigen refreshes
    shrink the decomposition and eigen-broadcast terms.
    """
    counters = preconditioner.tracer.counters()
    base_folds, base_refreshes = preconditioner.plan.base_updates(preconditioner.steps)

    def fraction(event: str, expected: int) -> float:
        performed = sum(counters.get(f"kfac/{event}/{name}", 0.0) for name in preconditioner.layers)
        return performed / expected if expected else 1.0

    return dataclasses.replace(
        spec,
        factor_update_fraction=fraction("factor_updates", base_folds),
        eigen_update_fraction=fraction("eigen_updates", base_refreshes),
    )
