"""Analytic iteration-time model for distributed K-FAC (Figures 6, 7 and 8).

The paper measures average iteration time and the per-stage breakdown of
``KFAC.step()`` on 64 V100 GPUs, and projects end-to-end speedups up to 128
A100s.  This module regenerates those results from first principles: given
the layer shapes of a model, a distribution strategy, the K-FAC update
frequencies and a :class:`PerformanceModel`, it computes per-rank time for
every stage of Figure 3 and reports the busiest rank (the makespan) as the
iteration time.  Infrequent stages (factor update, eigen decomposition) are
amortised over their update intervals exactly as the paper's averages are.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributed.collectives import BucketManager
from ..distributed.cost_model import PerformanceModel, amortized_update_time
from .factors import FactorRepr
from .strategy import DistributionStrategy, LayerShapeInfo, LayerWorkGroups

__all__ = [
    "repr_eigen_time",
    "repr_basis_apply_flops",
    "KFACWorkloadSpec",
    "IterationBreakdown",
    "IterationTimeModel",
    "CommSchedule",
    "model_comm_schedule",
    "update_fractions_from_stats",
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
    """Everything the iteration-time model needs to know about one application."""

    name: str
    layers: Sequence[LayerShapeInfo]
    param_count: int  # total trainable parameters (for the gradient allreduce)
    local_batch_size: int
    baseline_compute_time: float  # forward+backward+update time per iteration, per rank (s)
    factor_update_freq: int  # F_freq in Table 2
    inv_update_freq: int  # K_freq in Table 2
    samples_per_input: float = 1.0  # rows contributed to the factors per example (spatial positions for convs)
    grad_dtype_bytes: int = 4
    factor_dtype_bytes: int = 4
    eigen_dtype_bytes: int = 4
    grad_accumulation_steps: int = 1
    #: Performed-vs-base-cadence update ratios (1.0 = the fixed schedule).
    #: The adaptive scheduler reports measured values via
    #: ``KFAC.scheduler_stats()``; feed them in with
    #: :func:`apply_measured_fractions` to model the skipped factor/eigen
    #: work and communication.
    factor_update_fraction: float = 1.0
    eigen_update_fraction: float = 1.0

    @property
    def factor_bytes(self) -> int:
        """Total bytes of all Kronecker factors in their stored representation.

        Dense layers contribute ``a² + g²`` elements exactly as before; layers
        with structured factors (diagonal / block-diagonal,
        :class:`~repro.kfac.factors.FactorRepr`) contribute their packed O(F)
        element counts, matching what the handlers actually allocate.
        """
        return sum(
            (l.a_repr.packed_numel + l.g_repr.packed_numel) * self.factor_dtype_bytes for l in self.layers
        )

    @property
    def eigen_bytes_per_layer(self) -> Dict[str, int]:
        out = {}
        for l in self.layers:
            # Packed eigenvalues + stored eigenvectors per factor (a diagonal
            # factor's identity basis is implicit and costs nothing), plus the
            # cached g x a outer product.
            out[l.name] = (
                l.a_repr.packed_eigen_numel + l.g_repr.packed_eigen_numel + l.a_dim * l.g_dim
            ) * self.eigen_dtype_bytes
        return out

    @property
    def gradient_bytes(self) -> int:
        return self.param_count * self.grad_dtype_bytes


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
        """Amortised per-iteration time of every K-FAC stage, per rank."""
        strategy = DistributionStrategy(world_size, grad_worker_frac)
        groups = strategy.assign(list(spec.layers))
        comm_opt = strategy.num_grad_workers >= world_size
        ranks = np.arange(world_size)
        f_freq = max(spec.factor_update_freq, 1)
        k_freq = max(spec.inv_update_freq, 1)
        dtype_b = spec.factor_dtype_bytes

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
        # per row (dense: the full outer product; diagonal: the squared-row
        # sum; block-diagonal: per-block outer products).
        factor_flops = sum(2.0 * rows * (l.a_repr.packed_numel + l.g_repr.packed_numel) for l in spec.layers)
        times["factor_compute"][:] = amortized_update_time(
            self.perf.compute_time(factor_flops, dtype_b), f_freq, spec.factor_update_fraction
        )

        # --- factor allreduce (all ranks, bucketed into one volume) ---------
        times["factor_allreduce"][:] = amortized_update_time(
            self.perf.allreduce_time(spec.factor_bytes, world_size), f_freq, spec.factor_update_fraction
        )

        eigen_bytes = spec.eigen_bytes_per_layer
        for layer in spec.layers:
            group = groups[layer.name]
            # --- eigen decomposition (assigned workers only) ----------------
            time_a = repr_eigen_time(self.perf, layer.a_repr, dtype_b)
            time_g = repr_eigen_time(self.perf, layer.g_repr, dtype_b)
            eigen_fraction = spec.eigen_update_fraction
            times["eigen_decomposition"][group.eigen_worker_a] += amortized_update_time(
                time_a, k_freq, eigen_fraction
            )
            times["eigen_decomposition"][group.eigen_worker_g] += amortized_update_time(
                time_g, k_freq, eigen_fraction
            )

            # --- eigen broadcast --------------------------------------------
            if comm_opt:
                # Dense keeps the historical n² proxy (eigenvectors dominate);
                # structured factors are priced at their true packed payload
                # (eigenvalues + any stored block eigenvectors).
                bytes_a = (
                    layer.a_repr.eigenvector_numel if layer.a_repr.is_dense else layer.a_repr.packed_eigen_numel
                ) * spec.eigen_dtype_bytes
                bytes_g = (
                    layer.g_repr.eigenvector_numel if layer.g_repr.is_dense else layer.g_repr.packed_eigen_numel
                ) * spec.eigen_dtype_bytes
                duration = self.perf.broadcast_time(bytes_a, world_size) + self.perf.broadcast_time(bytes_g, world_size)
                times["eigen_broadcast"] += amortized_update_time(duration, k_freq, eigen_fraction)
            else:
                group_size = len(group.grad_workers)
                duration = self.perf.broadcast_time(eigen_bytes[layer.name], group_size)
                for rank in group.grad_workers:
                    times["eigen_broadcast"][rank] += amortized_update_time(duration, k_freq, eigen_fraction)

            # --- gradient preconditioning (gradient workers, every iteration)
            # Two eigenbasis rotations per side (into and out of the basis);
            # a diagonal factor's identity basis contributes none.
            precondition_flops = 2.0 * (
                repr_basis_apply_flops(self.perf, layer.g_repr, layer.a_dim)
                + repr_basis_apply_flops(self.perf, layer.a_repr, layer.g_dim)
            )
            duration = self.perf.compute_time(precondition_flops, dtype_b)
            for rank in group.grad_workers:
                times["precondition"][rank] += duration

            # --- preconditioned-gradient broadcast (every iteration) --------
            if not comm_opt:
                grad_bytes = layer.grad_numel * spec.grad_dtype_bytes
                for worker in group.grad_workers:
                    receivers = group.receivers_of(worker)
                    if not receivers:
                        continue
                    duration = self.perf.broadcast_time(grad_bytes, 1 + len(receivers))
                    times["grad_broadcast"][worker] += duration
                    for receiver in receivers:
                        times["grad_broadcast"][receiver] += duration

            # --- scaling / writing the update back --------------------------
            times["scale_and_update"] += self.perf.compute_time(4.0 * layer.grad_numel, dtype_b)

        return times

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
# Fused vs unfused communication schedules (the overlap engine, modeled)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommSchedule:
    """Modeled collective schedule of one K-FAC configuration.

    ``messages_per_update`` counts the collective messages issued for one
    full K-FAC update cycle — one factor allreduce round + one eigen
    broadcast round + one preconditioned-gradient broadcast round — summed
    over all ranks' distinct collectives (a fused bucket counts once).
    ``kfac_comm_time`` is the busiest rank's amortised per-iteration K-FAC
    communication time; ``iteration_time`` adds the compute stages and the
    data-parallel gradient allreduce so fused/unfused schedules can be
    compared end to end.

    ``exposed_comm_time`` / ``hidden_comm_time`` split the busiest rank's
    per-iteration communication into the part left on the critical path and
    the part hidden behind backward compute.  A ``hooked`` schedule (the
    backward-hook gradient pipeline) posts the factor allreduces and the
    data-parallel gradient averaging while backprop still runs, hiding them
    inside the backward window; step-time schedules expose everything.
    """

    strategy: str
    world_size: int
    fused: bool
    messages_per_update: int
    comm_bytes_per_update: int
    kfac_comm_time: float
    iteration_time: float
    hooked: bool = False
    exposed_comm_time: float = 0.0
    hidden_comm_time: float = 0.0


def model_comm_schedule(
    spec: KFACWorkloadSpec,
    world_size: int,
    grad_worker_frac: float,
    fused: bool = False,
    bucket_cap_mb: float = 25.0,
    perf: Optional[PerformanceModel] = None,
    overlap_window_s: float = 0.0,
    hooked: bool = False,
) -> CommSchedule:
    """Model the collective schedule the real engine would issue.

    The unfused schedule is the engine with a bucket cap below any tensor:
    one message per factor matrix, per packed eigen decomposition (plus the
    cached outer product under HYBRID/MEM-OPT) and per preconditioned-gradient
    broadcast.
    The fused schedule coalesces tensors sharing a communication channel —
    the world for factor allreduces, a ``(src, group)`` pair for broadcasts —
    into :class:`~repro.distributed.collectives.BucketManager` buckets capped
    at ``bucket_cap_mb``, paying one latency term per bucket.  Bytes moved
    are identical in both schedules; only message counts (alpha terms)
    differ.

    ``hooked=True`` models the backward-hook gradient pipeline (which
    implies the fused engine): the factor allreduces and the data-parallel
    gradient averaging are posted while backprop still runs, so up to
    :meth:`PerformanceModel.backward_window` seconds of that traffic are
    hidden; ``exposed_comm_time``/``hidden_comm_time`` report the split and
    ``iteration_time`` charges only the exposed part.  Eigen and
    preconditioned-gradient broadcasts stay inside ``KFAC.step()`` and
    remain exposed in every schedule.

    ``overlap_window_s`` is the legacy manual knob crediting only the fused
    factor allreduce with a fixed window; it is ignored when ``hooked``.
    """
    perf = perf if perf is not None else PerformanceModel()
    fused = bool(fused or hooked)
    strategy = DistributionStrategy(world_size, grad_worker_frac)
    groups = strategy.assign(list(spec.layers))
    comm_opt = strategy.num_grad_workers >= world_size
    buckets = BucketManager(bucket_cap_mb)
    f_dtype = np.dtype(np.float32 if spec.factor_dtype_bytes == 4 else np.float16)
    e_dtype = np.dtype(np.float32 if spec.eigen_dtype_bytes == 4 else np.float16)
    g_dtype = np.dtype(np.float32 if spec.grad_dtype_bytes == 4 else np.float16)
    f_freq = max(spec.factor_update_freq, 1)
    k_freq = max(spec.inv_update_freq, 1)

    messages = 0
    comm_bytes = 0
    # Per-rank amortised time of the step-time broadcast rounds (eigen and
    # preconditioned gradients); the factor allreduce — the round the hooked
    # pipeline can hide — is tracked separately in ``factor_per_iter``.
    comm_time = np.zeros(world_size)

    # --- factor allreduce (world-wide; every rank participates) ------------
    factor_specs = []
    for layer in spec.layers:
        # The real engine allreduces each factor in its packed wire form:
        # (n, n) for dense, (n,) for diagonal, (blocks, bs, bs) for
        # block-diagonal — so the modeled fusion sees the true byte counts.
        factor_specs.append((f"{layer.name}/a", layer.a_repr.comm_shape(), f_dtype))
        factor_specs.append((f"{layer.name}/g", layer.g_repr.comm_shape(), f_dtype))
    factor_time = 0.0
    factor_per_iter = 0.0
    if world_size > 1:
        if fused:
            for bucket in buckets.build(factor_specs):
                messages += 1
                comm_bytes += bucket.nbytes
                factor_time += perf.fused_allreduce_time(bucket.nbytes, world_size, 1)
        else:
            for _, shape, dtype in factor_specs:
                nbytes = int(np.prod(shape)) * dtype.itemsize
                messages += 1
                comm_bytes += nbytes
                factor_time += perf.allreduce_time(nbytes, world_size)
        if fused and not hooked and overlap_window_s > 0.0:
            factor_time = perf.exposed_comm_time(factor_time, overlap_window_s)
        factor_per_iter = amortized_update_time(factor_time, f_freq, spec.factor_update_fraction)

    # --- eigen broadcast ----------------------------------------------------
    def packed_eigen_elems(repr_: FactorRepr) -> int:
        # Eigenvalues + stored eigenvectors; the identity basis of a diagonal
        # factor is implicit, so its packed buffer is just the spectrum.
        return repr_.packed_eigen_numel

    eigen_channels: Dict[Tuple, List[Tuple[str, Tuple[int, ...], np.dtype]]] = {}
    eigen_order: List[Tuple] = []

    def add_to_channel(channel: Tuple, spec_entry: Tuple[str, Tuple[int, ...], np.dtype]) -> None:
        if channel not in eigen_channels:
            eigen_channels[channel] = []
            eigen_order.append(channel)
        eigen_channels[channel].append(spec_entry)

    if world_size > 1:
        for layer in spec.layers:
            group = groups[layer.name]
            if comm_opt:
                world = tuple(range(world_size))
                a_entry = (f"{layer.name}/ea", (packed_eigen_elems(layer.a_repr),), e_dtype)
                g_entry = (f"{layer.name}/eg", (packed_eigen_elems(layer.g_repr),), e_dtype)
                if fused:
                    add_to_channel((group.eigen_worker_a, world), a_entry)
                    add_to_channel((group.eigen_worker_g, world), g_entry)
                else:
                    for entry in (a_entry, g_entry):
                        nbytes = int(np.prod(entry[1])) * e_dtype.itemsize
                        messages += 1
                        comm_bytes += nbytes
                        comm_time += amortized_update_time(
                            perf.broadcast_time(nbytes, world_size), k_freq, spec.eigen_update_fraction
                        )
            else:
                members = group.grad_workers
                if len(members) <= 1:
                    continue
                entries = [
                    (f"{layer.name}/ea", (packed_eigen_elems(layer.a_repr),), e_dtype),
                    (f"{layer.name}/eg", (packed_eigen_elems(layer.g_repr),), e_dtype),
                    (f"{layer.name}/outer", (layer.g_dim, layer.a_dim), e_dtype),
                ]
                if fused:
                    for entry in entries:
                        add_to_channel((group.eigen_worker, members), entry)
                else:
                    for entry in entries:
                        nbytes = int(np.prod(entry[1])) * e_dtype.itemsize
                        messages += 1
                        comm_bytes += nbytes
                        duration = amortized_update_time(
                            perf.broadcast_time(nbytes, len(members)), k_freq, spec.eigen_update_fraction
                        )
                        for rank in members:
                            comm_time[rank] += duration
        if fused:
            for channel in eigen_order:
                _, members = channel
                for bucket in buckets.build(eigen_channels[channel]):
                    messages += 1
                    comm_bytes += bucket.nbytes
                    duration = amortized_update_time(
                        perf.fused_broadcast_time(bucket.nbytes, len(members), 1), k_freq, spec.eigen_update_fraction
                    )
                    for rank in members:
                        comm_time[rank] += duration

    # --- preconditioned-gradient broadcast (every iteration) ----------------
    grad_channels: Dict[Tuple, List[Tuple[str, Tuple[int, ...], np.dtype]]] = {}
    grad_order: List[Tuple] = []
    if world_size > 1 and not comm_opt:
        for layer in spec.layers:
            group = groups[layer.name]
            for worker in group.grad_workers:
                receivers = group.receivers_of(worker)
                if not receivers:
                    continue
                members = (worker,) + receivers
                entry = (f"{layer.name}/pg", (layer.grad_numel,), g_dtype)
                if fused:
                    channel = (worker, members)
                    if channel not in grad_channels:
                        grad_channels[channel] = []
                        grad_order.append(channel)
                    grad_channels[channel].append(entry)
                else:
                    nbytes = layer.grad_numel * g_dtype.itemsize
                    messages += 1
                    comm_bytes += nbytes
                    duration = perf.broadcast_time(nbytes, len(members))
                    for rank in members:
                        comm_time[rank] += duration
        for channel in grad_order:
            _, members = channel
            for bucket in buckets.build(grad_channels[channel]):
                messages += 1
                comm_bytes += bucket.nbytes
                duration = perf.fused_broadcast_time(bucket.nbytes, len(members), 1)
                for rank in members:
                    comm_time[rank] += duration

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
        strategy=strategy.name,
        world_size=world_size,
        fused=bool(fused),
        messages_per_update=int(messages),
        comm_bytes_per_update=int(comm_bytes),
        kfac_comm_time=float(kfac_comm_time),
        iteration_time=float(compute_no_allreduce + exposed),
        hooked=bool(hooked),
        exposed_comm_time=float(exposed),
        hidden_comm_time=float(hidden),
    )


# ---------------------------------------------------------------------------
# Measured scheduler counters -> modeled update fractions
# ---------------------------------------------------------------------------


def update_fractions_from_stats(stats: Dict[str, Any]) -> Tuple[float, float]:
    """``(factor_update_fraction, eigen_update_fraction)`` from ``KFAC.scheduler_stats()``.

    The preconditioner already normalizes its counters against the fixed base
    cadence; this helper just extracts the two ratios (defaulting to 1.0 for
    stat dicts that carry none).
    """
    return (
        float(stats.get("factor_update_fraction", 1.0)),
        float(stats.get("eigen_update_fraction", 1.0)),
    )


def apply_measured_fractions(spec: KFACWorkloadSpec, stats: Dict[str, Any]) -> KFACWorkloadSpec:
    """A copy of ``spec`` carrying the update fractions a real run measured.

    Feed the result back into :class:`IterationTimeModel` /
    :func:`model_comm_schedule` to model the iteration time of the adaptive
    schedule: skipped factor updates shrink the amortised factor compute and
    allreduce terms, skipped eigen refreshes shrink the decomposition and
    eigen-broadcast terms.
    """
    factor_fraction, eigen_fraction = update_fractions_from_stats(stats)
    return dataclasses.replace(
        spec,
        factor_update_fraction=factor_fraction,
        eigen_update_fraction=eigen_fraction,
    )
