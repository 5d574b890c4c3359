"""Experiment harness: convergence comparisons and strategy sweeps.

These functions are shared between ``benchmarks/`` (which prints the
paper-style tables) and ``examples/`` (which demonstrate the public API).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

import dataclasses

from ..distributed import run_spmd
from ..kfac import KFAC, IterationTimeModel, KFACWorkloadSpec
from ..memory import overhead_bytes, paper_layout_bytes
from ..training import Trainer, TrainingCurve
from .workloads import TrainableWorkload, build_workload, make_optimizer

__all__ = [
    "ConvergenceResult",
    "run_convergence_comparison",
    "sweep_grad_worker_frac",
    "scaling_projection",
    "measured_memory_report",
]


@dataclass
class ConvergenceResult:
    """Baseline vs KAISA convergence comparison for one workload."""

    workload: str
    target_metric: float
    baseline_curve: TrainingCurve
    kaisa_curve: TrainingCurve

    def summary(self) -> Dict[str, Optional[float]]:
        target = self.target_metric
        return {
            "target": target,
            "baseline_best": self.baseline_curve.best_metric,
            "kaisa_best": self.kaisa_curve.best_metric,
            "baseline_iters_to_target": self.baseline_curve.iterations_to_target(target),
            "kaisa_iters_to_target": self.kaisa_curve.iterations_to_target(target),
            "baseline_epochs_to_target": self.baseline_curve.epochs_to_target(target),
            "kaisa_epochs_to_target": self.kaisa_curve.epochs_to_target(target),
        }

    def iteration_reduction_percent(self) -> Optional[float]:
        """Percentage reduction in iterations-to-target from KAISA (higher is better)."""
        baseline = self.baseline_curve.iterations_to_target(self.target_metric)
        kaisa = self.kaisa_curve.iterations_to_target(self.target_metric)
        if baseline is None or kaisa is None or baseline == 0:
            return None
        return 100.0 * (baseline - kaisa) / baseline


def _train(
    workload: TrainableWorkload,
    use_kfac: bool,
    grad_worker_frac: float,
    epochs: Optional[int],
    iteration_time: Optional[float] = None,
) -> TrainingCurve:
    config = workload.config
    lr = config.kfac_lr if use_kfac else config.baseline_lr
    optimizer = make_optimizer(
        config.baseline_optimizer,
        workload.model.parameters(),
        lr=lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    preconditioner = None
    if use_kfac:
        kfac_config = config.kfac_config(grad_worker_frac=grad_worker_frac)
        preconditioner = KFAC.from_config(workload.model, kfac_config, skip_modules=workload.kfac_skip_modules)
    trainer = Trainer(
        workload.model,
        optimizer,
        workload.forward_loss,
        preconditioner=preconditioner,
        iteration_time=iteration_time,
    )
    curve = TrainingCurve(name=f"{workload.name}-{'kaisa' if use_kfac else config.baseline_optimizer}")
    trainer.fit(
        workload.train_loader,
        epochs=epochs if epochs is not None else config.epochs,
        evaluate_fn=workload.evaluate,
        curve=curve,
    )
    return curve


def run_convergence_comparison(
    name: str,
    epochs: Optional[int] = None,
    grad_worker_frac: float = 1.0,
    seed: int = 0,
    workload_kwargs: Optional[dict] = None,
    baseline_iteration_time: Optional[float] = None,
    kaisa_iteration_time: Optional[float] = None,
) -> ConvergenceResult:
    """Train a workload with its baseline optimizer and with KAISA, same global batch size.

    Two independent workload instances are built from the same seed so both
    runs see identical models, data ordering and initial weights — isolating
    the effect of second-order preconditioning exactly as in section 5.3.
    """
    kwargs = workload_kwargs or {}
    baseline_workload = build_workload(name, seed=seed, **kwargs)
    kaisa_workload = build_workload(name, seed=seed, **kwargs)
    baseline_curve = _train(
        baseline_workload, use_kfac=False, grad_worker_frac=grad_worker_frac, epochs=epochs,
        iteration_time=baseline_iteration_time,
    )
    kaisa_curve = _train(
        kaisa_workload, use_kfac=True, grad_worker_frac=grad_worker_frac, epochs=epochs,
        iteration_time=kaisa_iteration_time,
    )
    return ConvergenceResult(
        workload=name,
        target_metric=baseline_workload.config.target_metric,
        baseline_curve=baseline_curve,
        kaisa_curve=kaisa_curve,
    )


def sweep_grad_worker_frac(
    spec: KFACWorkloadSpec,
    world_size: int,
    fracs: Sequence[float],
    model: Optional[IterationTimeModel] = None,
) -> Dict[float, Dict[str, float]]:
    """Iteration time + memory overhead of ``spec`` across grad_worker_frac values (Figure 6)."""
    time_model = model if model is not None else IterationTimeModel()
    results: Dict[float, Dict[str, float]] = {}
    for frac in fracs:
        breakdown = time_model.kfac_breakdown(spec, world_size, frac)
        # The representative per-GPU overhead is the mean across ranks: with fewer
        # layers than ranks the busiest rank's eigen memory saturates early, while
        # the paper's per-GPU measurements grow smoothly (linearly) with the fraction.
        overhead = overhead_bytes(spec, world_size, frac, rank="mean")
        # The paper's layout keeps every factor on every rank (its Figure 6 right axes).
        replicated = paper_layout_bytes(spec, world_size, frac, rank="mean")
        results[frac] = {
            "iteration_time": breakdown.total,
            "kfac_overhead_time": breakdown.kfac_overhead,
            "memory_overhead_bytes": float(overhead),
            "replicated_memory_overhead_bytes": float(replicated),
            "baseline_iteration_time": time_model.baseline_iteration_time(spec, world_size),
        }
    return results


def measured_memory_report(
    name: str,
    world_size: int = 2,
    grad_worker_frac: float = 1.0,
    steps: int = 2,
    seed: int = 0,
    workload_kwargs: Optional[dict] = None,
    kfac_overrides: Optional[dict] = None,
) -> Dict[str, object]:
    """Live per-rank K-FAC memory from a real run on the threaded backend.

    Trains ``steps`` optimization steps of a real (small) workload under the
    requested distribution strategy with factor and eigen updates every
    iteration, then reads :meth:`KFAC.memory_usage` on every rank.  The
    analytic per-rank prediction for the *same registered layers* (the run's
    :class:`~repro.kfac.strategy.DistributionPlan`, summed per rank) is
    returned alongside, so paper-style memory tables (Tables 4/5) can print a
    live-measured column next to the modeled one and the two can be checked
    against each other byte-exactly.
    """

    def program(comm):
        workload = build_workload(name, seed=seed, **(workload_kwargs or {}))
        config = workload.config
        optimizer = make_optimizer(
            config.baseline_optimizer,
            workload.model.parameters(),
            lr=config.kfac_lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        overrides = {"factor_update_freq": 1, "inv_update_freq": 1, **(kfac_overrides or {})}
        kfac_config = config.kfac_config(grad_worker_frac=grad_worker_frac).replace(**overrides)
        preconditioner = KFAC.from_config(
            workload.model, kfac_config, comm=comm, skip_modules=workload.kfac_skip_modules
        )
        trainer = Trainer(
            workload.model, optimizer, workload.forward_loss, preconditioner=preconditioner, comm=comm
        )
        done = 0
        while done < steps:
            for batch in workload.train_loader:
                trainer.train_step(batch)
                done += 1
                if done >= steps:
                    break
        measured = preconditioner.memory_usage()
        plan = preconditioner.plan
        predicted = {"factors": int(plan.factor_bytes_per_rank()[comm.rank])}
        predicted.update((key, int(plan.state_bytes_per_rank(key)[comm.rank])) for key in ("eigen", "solver"))
        predicted["total"] = sum(predicted.values())
        return {"measured": measured, "predicted": predicted}

    per_rank = run_spmd(world_size, program)
    totals = [entry["measured"]["total"] for entry in per_rank]
    return {
        "workload": name,
        "world_size": world_size,
        "grad_worker_frac": grad_worker_frac,
        "per_rank": per_rank,
        "measured_total_max": max(totals),
        "measured_total_mean": float(np.mean(totals)),
    }


def scaling_projection(
    spec: KFACWorkloadSpec,
    world_sizes: Sequence[int],
    baseline_iterations: int,
    kaisa_iterations: int,
    strategies: Optional[Dict[str, float]] = None,
    model: Optional[IterationTimeModel] = None,
    scale_update_freq_with_world: bool = False,
    reference_world_size: Optional[int] = None,
) -> Dict[str, Dict[int, float]]:
    """Projected end-to-end speedup of KAISA variants over the baseline optimizer (Figure 8).

    ``scale_update_freq_with_world`` reproduces the paper's ResNet-50 setup
    where the K-FAC update frequency is scaled inversely with the global batch
    size so the number of K-FAC updates per training sample stays constant.
    """
    time_model = model if model is not None else IterationTimeModel()
    if strategies is None:
        strategies = {"MEM-OPT": None, "HYBRID-OPT (1/2)": 0.5, "COMM-OPT": 1.0}
    reference = reference_world_size or min(world_sizes)
    results: Dict[str, Dict[int, float]] = {name: {} for name in strategies}
    for world_size in world_sizes:
        working_spec = spec
        if scale_update_freq_with_world:
            scale = reference / world_size
            config = spec.config
            working_spec = dataclasses.replace(
                spec,
                config=config.replace(
                    factor_update_freq=max(1, int(round(config.factor_update_freq * scale))),
                    inv_update_freq=max(1, int(round(config.inv_update_freq * scale))),
                ),
            )
        for strategy_name, frac in strategies.items():
            actual_frac = (1.0 / world_size) if frac is None else frac
            results[strategy_name][world_size] = time_model.speedup_over_baseline(
                working_spec, world_size, actual_frac, baseline_iterations, kaisa_iterations
            )
    return results
