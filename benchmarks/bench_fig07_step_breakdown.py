"""Figure 7: per-stage execution time inside KFAC.step() vs grad_worker_frac.

The paper instruments KFAC.step() for ResNet-50 on 64 V100s and shows that
factor computation/communication, eigen decomposition and gradient scaling are
invariant to grad_worker_frac, the eigen-decomposition broadcast grows with
the gradient-worker count (but is amortised over the 500-iteration update
interval), gradient preconditioning grows, and the preconditioned-gradient
broadcast shrinks to zero — and shrinks faster than preconditioning grows.

Two views are produced: (a) the analytic per-stage model on the real ResNet-50
layer shapes at world size 64, and (b) wall-clock stage timings read off the
tracer's ``kfac/<stage>`` spans (via ``MetricsReport``) on a real (small)
model so the instrumentation path itself is exercised.

The plan spreads an interval's eigen decompositions over its fold-free steps
(``DistributionPlan.refresh_offsets``), so a third view times the small BERT
workload step by step and prints the median step by ``step % inv_update_freq``
class beside the model's single-refresh-step and heaviest-step figures
(``IterationTimeModel.refresh_interval``); it goes to
``BENCH_step_breakdown.json``.  Ranks are threads: time it as ``benchmarks/e2e``
does, with ``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1``, or the BLAS pools of
two ranks fight over the cores and a decomposition step reads three times its
cost.

A last test compares the adaptive scheduling subsystem against the fixed
cadence on the BERT workload: a live training run under both configurations
(same seed, same data order) counts eigendecompositions and factor updates in
the rank's registry (``kfac/<event>/<layer>``), the measured fractions are
mapped onto the BERT-Large modeled spec via ``apply_measured_fractions``, and
the numbers go to ``BENCH_adaptive_schedule.json``.
"""

from pathlib import Path

import numpy as np

from repro import nn, optim
from repro.distributed import run_spmd
from repro.experiments import build_workload, format_table, paper_workload_spec, write_bench_json
from repro.experiments.model_shapes import collect_layer_shapes
from repro.kfac import (
    KFAC,
    KFACConfig,
    KFACWorkloadSpec,
    IterationTimeModel,
    apply_measured_fractions,
)
from repro.models import MLP
from repro.observability import MetricsReport
from repro.tensor import Tensor
from repro.training import Trainer

from conftest import print_section

ADAPTIVE_OUTPUT = Path(__file__).with_name("BENCH_adaptive_schedule.json")
STEP_CLASS_OUTPUT = Path(__file__).with_name("BENCH_step_breakdown.json")
WORLD_SIZE = 64
FRACS = [1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0]
STAGES = [
    "factor_compute",
    "factor_allreduce",
    "eigen_decomposition",
    "eigen_broadcast",
    "precondition",
    "grad_broadcast",
    "scale_and_update",
]


def test_fig07_analytic_stage_breakdown(benchmark):
    spec = paper_workload_spec("resnet50")
    model = IterationTimeModel()

    def sweep():
        return {frac: model.kfac_breakdown(spec, WORLD_SIZE, frac) for frac in FRACS}

    breakdowns = benchmark(sweep)

    rows = []
    for stage in STAGES:
        rows.append([stage] + [round(getattr(breakdowns[frac], stage) * 1000, 3) for frac in FRACS])
    headers = ["stage (ms/iter)"] + [f"frac=1/{round(1 / f)}" if f < 1 else "frac=1" for f in FRACS]
    print_section(f"Figure 7 - KFAC.step() stage breakdown, ResNet-50, {WORLD_SIZE} GPUs (analytic)")
    print(format_table(headers, rows))

    # The paper's qualitative observations, as assertions.
    precondition = [breakdowns[f].precondition for f in FRACS]
    grad_bcast = [breakdowns[f].grad_broadcast for f in FRACS]
    eigen_bcast = [breakdowns[f].eigen_broadcast for f in FRACS]
    factor_comm = [breakdowns[f].factor_allreduce for f in FRACS]
    assert precondition[-1] > precondition[0]
    assert grad_bcast[-1] == 0.0 and grad_bcast[0] > 0.0
    assert eigen_bcast[-1] > eigen_bcast[0]
    assert max(factor_comm) - min(factor_comm) < 1e-12
    # The broadcast saving outweighs the extra preconditioning work overall.
    assert (grad_bcast[0] - grad_bcast[-1]) > (precondition[-1] - precondition[0]) * 0.5


def _traced_mlp_run() -> MetricsReport:
    """30 preconditioned steps of a small MLP; the ``kfac/<stage>`` spans of the run."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((512, 16)).astype(np.float32)
    y = rng.integers(0, 5, 512)
    model = MLP(16, [64, 64], 5, rng=np.random.default_rng(1))
    config = KFACConfig(lr=0.05, factor_update_freq=5, inv_update_freq=10)
    preconditioner = KFAC.from_config(model, config)
    tracer = preconditioner.tracer
    tracer.enabled = True
    loss_fn = nn.CrossEntropyLoss()
    optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
    for step in range(30):
        idx = np.random.default_rng(step).integers(0, 512, 64)
        optimizer.zero_grad()
        loss_fn(model(Tensor(x[idx])), y[idx]).backward()
        preconditioner.step()
        optimizer.step()
    return MetricsReport.from_tracers(tracer)


def test_fig07_measured_stage_breakdown(benchmark):
    """Wall-clock stage timings from the live ``kfac/<stage>`` spans (small model, 30 steps)."""
    report = benchmark.pedantic(_traced_mlp_run, iterations=1, rounds=1)
    rows = [
        [stage, round(report.total(f"kfac/{stage}") * 1000, 3), report.count(f"kfac/{stage}")]
        for stage in STAGES
    ]
    print_section("Figure 7 (measured) - wall-clock totals over 30 preconditioned steps (MLP, single process)")
    print(format_table(["stage", "total time (ms)", "calls"], rows))

    # Infrequent stages run on the update intervals only; preconditioning runs every step.  The
    # three layers' decompositions sit on two fold-free steps of each interval: 0, then 6, 11, 16, 21, 26.
    assert report.count("kfac/precondition") == 30
    assert report.count("kfac/eigen_decomposition") == 6
    assert report.count("kfac/factor_compute") == 6


# --------------------------------------------------------------------------
# Step time by position in the interval (BERT, measured) beside the model
# --------------------------------------------------------------------------

CLASS_WORLDS = (1, 2)  # MEM-OPT at world 2 is benchmarks/e2e's bert_memopt_w2
CLASS_INTERVALS = 5  # timed intervals after the warm-up interval


def _timed_bert_steps(world_size: int):
    """Per-step wall-clock of the small BERT workload under MEM-OPT (the slowest rank sets a step) and its plan."""

    def program(comm):
        workload = build_workload("bert", seed=0)
        kfac_config = workload.config.kfac_config(grad_worker_frac=1.0 / world_size)
        preconditioner = KFAC.from_config(workload.model, kfac_config, comm=comm, skip_modules=workload.kfac_skip_modules)
        optimizer = optim.SGD(workload.model.parameters(), lr=workload.config.kfac_lr, momentum=0.9)
        comm.tracer.enabled = True
        trainer = Trainer(workload.model, optimizer, workload.forward_loss, preconditioner=preconditioner, comm=comm)
        steps = (1 + CLASS_INTERVALS) * kfac_config.inv_update_freq + 1
        while trainer.iterations < steps:
            for batch in workload.train_loader:
                comm.barrier()  # ranks enter every step together: a step's time is its own work
                trainer.train_step({key: value[comm.rank :: world_size] for key, value in batch.items()})
                if trainer.iterations >= steps:
                    break
        times = [span.duration * 1e3 for span in comm.tracer.spans if span.name == "trainer/step"]
        shapes = collect_layer_shapes(workload.model, skip_modules=workload.kfac_skip_modules, include_structured=True)
        return times, preconditioner.plan, shapes, kfac_config

    ranks = run_spmd(world_size, program)
    _, plan, shapes, kfac_config = ranks[0]
    return np.max([times for times, *_ in ranks], axis=0), plan, shapes, kfac_config


def test_fig07_step_time_by_interval_class(benchmark):
    """No refresh *step*: the heaviest step class of an interval sits well under fold + every decomposition."""

    def run_all():
        return {world: _timed_bert_steps(world) for world in CLASS_WORLDS}

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    model = IterationTimeModel()
    payload = {}
    for world, (times, plan, shapes, kfac_config) in results.items():
        interval, fold_every = plan.inv_update_freq, plan.factor_update_freq
        timed = range(interval + 1, len(times))  # past step 0's full refresh and the first interval
        by_class = {phase: [times[step] for step in timed if step % interval == phase] for phase in range(interval)}
        medians = {phase: float(np.median(values)) for phase, values in by_class.items()}
        steady = [plan.actions(interval + phase) for phase in range(interval)]  # what each class of step does
        plain = float(np.median([medians[a.step - interval] for a in steady if not (a.fold or a.refresh)]))
        spec = KFACWorkloadSpec(
            "bert_small", shapes, param_count=0, local_batch_size=1, baseline_compute_time=1.0, config=kfac_config
        )
        modeled = model.refresh_interval(spec, world, kfac_config.grad_worker_frac)
        rows = []
        for phase, actions in enumerate(steady):
            role = " + ".join(filter(None, ["fold" if actions.fold else "", f"{len(actions.refresh)} layers decomposed" if actions.refresh else ""]))
            rows.append([phase, role or "plain", round(medians[phase], 2), round(medians[phase] - plain, 2), len(by_class[phase])])
        eigen_classes = [phase for phase, actions in enumerate(steady) if actions.refresh]
        measured_heaviest = max(medians[phase] - plain for phase in eigen_classes)
        measured_all = sum(medians[phase] - plain for phase in eigen_classes)
        print_section(
            f"Step time by step % {interval} class - small BERT, MEM-OPT, world {world} "
            f"({CLASS_INTERVALS} timed intervals; modeled eigen stage: one refresh step "
            f"{modeled['single_refresh_step'] * 1e3:.3f} ms, heaviest step {modeled['heaviest_step'] * 1e3:.3f} ms "
            f"= x{modeled['heaviest_step'] / modeled['single_refresh_step']:.2f}, "
            f"{modeled['touched_steps']} of {modeled['interval_steps']} steps touched; measured over a plain step: "
            f"every decomposition {measured_all:.1f} ms, heaviest step {measured_heaviest:.1f} ms "
            f"= x{measured_heaviest / measured_all:.2f})"
        )
        print(format_table(["step % K", "carries", "median step (ms)", "over a plain step (ms)", "steps timed"], rows))

        # Fewer than half the steps carry work, so the median step is a plain one; the decompositions are split.
        assert modeled["touched_steps"] == len(eigen_classes) + interval // fold_every < interval / 2
        assert modeled["heaviest_step"] < modeled["single_refresh_step"]
        assert measured_heaviest < 0.8 * measured_all
        payload[f"world_{world}"] = {
            "strategy": plan.scheme,
            "factor_update_freq": fold_every,
            "inv_update_freq": interval,
            "refresh_offsets": plan.refresh_offsets,
            "plain_step_ms": plain,
            "classes": [
                {"step_mod_interval": phase, "carries": role, "median_step_ms": median, "over_plain_ms": over, "steps_timed": count}
                for phase, role, median, over, count in rows
            ],
            "measured_all_decompositions_ms": measured_all,
            "measured_heaviest_step_ms": measured_heaviest,
            "modeled": modeled,
        }
    write_bench_json(STEP_CLASS_OUTPUT, "step_breakdown", {"live_workload": "bert", "timed_intervals": CLASS_INTERVALS, **payload})


# --------------------------------------------------------------------------
# Adaptive scheduling vs fixed cadence (BERT)
# --------------------------------------------------------------------------

ADAPTIVE_STEPS = 40
ADAPTIVE_SEED = 0


def _counted(preconditioner, event: str) -> int:
    """``kfac/<event>`` over the preconditioner's layers, from its rank's registry."""
    counters = preconditioner.tracer.counters()
    return int(sum(counters.get(f"kfac/{event}/{name}", 0) for name in preconditioner.layers))


def _train_bert(adaptive: bool):
    """Train the small BERT workload for ADAPTIVE_STEPS optimizer steps."""
    workload = build_workload("bert", seed=ADAPTIVE_SEED)
    config = workload.config
    kfac_config = config.kfac_config(grad_worker_frac=1.0).replace(
        factor_update_freq=2, inv_update_freq=4
    )
    if adaptive:
        # The adaptive preset's knobs on top of the workload's hyperparameters
        # (drift-driven stretching, LM damping, pi split, CG for small layers).
        kfac_config = kfac_config.replace(
            drift_tol=0.05,
            max_staleness=8 * kfac_config.inv_update_freq,
            adaptive_damping=True,
            damping_pi_correction=True,
            small_layer_solver="cg",
            small_layer_dim=32,
        )
    preconditioner = KFAC.from_config(
        workload.model, kfac_config, skip_modules=workload.kfac_skip_modules
    )
    optimizer = optim.SGD(workload.model.parameters(), lr=config.kfac_lr, momentum=0.9)
    trainer = Trainer(
        workload.model, optimizer, workload.forward_loss, preconditioner=preconditioner
    )
    losses = []
    done = 0
    while done < ADAPTIVE_STEPS:
        for batch in workload.train_loader:
            losses.append(float(trainer.train_step(batch)))
            done += 1
            if done >= ADAPTIVE_STEPS:
                break
    return losses, preconditioner


def test_adaptive_schedule_vs_fixed_cadence(benchmark):
    """Adaptive scheduling does strictly less second-order work than the fixed
    cadence on the BERT workload at (approximately) equal final loss, and the
    measured skip fractions price into strictly lower modeled eigen and
    factor-communication cost on the BERT-Large layer set."""

    def run_both():
        return _train_bert(adaptive=False), _train_bert(adaptive=True)

    (fixed_losses, fixed_pre), (adaptive_losses, adaptive_pre) = benchmark.pedantic(
        run_both, iterations=1, rounds=1
    )

    fixed_final = float(np.mean(fixed_losses[-5:]))
    adaptive_final = float(np.mean(adaptive_losses[-5:]))
    fixed_eigen = _counted(fixed_pre, "eigen_updates")
    adaptive_eigen = _counted(adaptive_pre, "eigen_updates")
    fixed_factor = _counted(fixed_pre, "factor_updates")
    adaptive_factor = _counted(adaptive_pre, "factor_updates")

    # Modeled cost on the real BERT-Large layer set with the measured fractions.
    spec = paper_workload_spec("bert_large")
    adaptive_spec = apply_measured_fractions(spec, adaptive_pre)
    factor_fraction, eigen_fraction = adaptive_spec.factor_update_fraction, adaptive_spec.eigen_update_fraction
    model = IterationTimeModel()
    fixed_breakdown = model.kfac_breakdown(spec, WORLD_SIZE, 1.0)
    adaptive_breakdown = model.kfac_breakdown(adaptive_spec, WORLD_SIZE, 1.0)
    # Amortised factor-allreduce bytes per iteration (every rank participates).
    fixed_factor_bytes = spec.factor_bytes / spec.config.factor_update_freq
    adaptive_factor_bytes = adaptive_spec.factor_bytes * factor_fraction / adaptive_spec.config.factor_update_freq

    rows = [
        ["final loss (mean last 5)", round(fixed_final, 4), round(adaptive_final, 4)],
        ["eigendecompositions", fixed_eigen, adaptive_eigen],
        ["factor updates", fixed_factor, adaptive_factor],
        ["eigen update fraction", 1.0, round(eigen_fraction, 4)],
        ["factor update fraction", 1.0, round(factor_fraction, 4)],
        ["modeled eigen time (ms/iter)", round(fixed_breakdown.eigen_decomposition * 1e3, 3),
         round(adaptive_breakdown.eigen_decomposition * 1e3, 3)],
        ["modeled factor comm (ms/iter)", round(fixed_breakdown.factor_allreduce * 1e3, 3),
         round(adaptive_breakdown.factor_allreduce * 1e3, 3)],
        ["modeled factor comm (bytes/iter)", round(fixed_factor_bytes), round(adaptive_factor_bytes)],
    ]
    print_section(
        f"Adaptive scheduling vs fixed cadence - BERT ({ADAPTIVE_STEPS} live steps; "
        f"modeled: BERT-Large, {WORLD_SIZE} GPUs, COMM-OPT)"
    )
    print(format_table(["metric", "fixed", "adaptive"], rows))

    # Strictly less second-order work...
    assert adaptive_eigen < fixed_eigen
    assert adaptive_factor < fixed_factor
    assert eigen_fraction < 1.0 and factor_fraction < 1.0
    # ...which prices into strictly lower modeled eigen + factor-comm cost...
    assert adaptive_breakdown.eigen_decomposition < fixed_breakdown.eigen_decomposition
    assert adaptive_breakdown.factor_allreduce < fixed_breakdown.factor_allreduce
    assert adaptive_factor_bytes < fixed_factor_bytes
    # ...at (approximately) equal final loss.
    assert abs(adaptive_final - fixed_final) <= 0.05 * fixed_final

    write_bench_json(
        ADAPTIVE_OUTPUT,
        "adaptive_schedule",
        {
            "live_workload": "bert",
            "steps": ADAPTIVE_STEPS,
            "modeled_workload": spec.name,
            "world_size": WORLD_SIZE,
            "grad_worker_frac": 1.0,
            "fixed": {
                "final_loss": fixed_final,
                "eigendecompositions": fixed_eigen,
                "factor_updates": fixed_factor,
                "modeled_eigen_time": fixed_breakdown.eigen_decomposition,
                "modeled_factor_allreduce_time": fixed_breakdown.factor_allreduce,
                "modeled_factor_comm_bytes_per_iter": fixed_factor_bytes,
            },
            "adaptive": {
                "final_loss": adaptive_final,
                "eigendecompositions": adaptive_eigen,
                "factor_updates": adaptive_factor,
                "eigen_update_fraction": eigen_fraction,
                "factor_update_fraction": factor_fraction,
                "damping": {
                    "value": adaptive_pre.damping,
                    "shrinks": int(adaptive_pre.tracer.counters().get("kfac/damping_shrinks", 0)),
                    "grows": int(adaptive_pre.tracer.counters().get("kfac/damping_grows", 0)),
                },
                "modeled_eigen_time": adaptive_breakdown.eigen_decomposition,
                "modeled_factor_allreduce_time": adaptive_breakdown.factor_allreduce,
                "modeled_factor_comm_bytes_per_iter": adaptive_factor_bytes,
            },
        },
    )
