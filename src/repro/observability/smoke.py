"""End-to-end trace smoke: a tiny traced BERT run under the threaded world.

Runs the full instrumented stack — a gradient pipeline armed for overlap
with backward, fused nonblocking collectives, K-FAC with per-stage spans —
across ``--world`` threaded ranks with tracing enabled, then exports and
validates a Chrome trace (loadable in Perfetto / ``chrome://tracing``),
prints the aggregated
:class:`~repro.observability.MetricsReport`, and reports the *measured*
exposed/hidden communication next to the analytic model's prediction for
the same layer set.  Used three ways:

* the CI trace-smoke job: ``python -m repro.observability.smoke --out
  trace.json`` (exit code non-zero if the exported trace fails validation, if
  a rank's plan digest differs from that of the plan the models build from
  the run's config, if the ranks' running factors do not add up to every factor stored once, if a
  rank's factor bytes are not the packed triangles of the factors it holds --
  ``n(n+1)/2`` elements per dense factor, a regression to square storage --
  if a rank's slice of the modeled K-FAC messages or bytes differs from what
  that rank's registry counted, if rank 0 decomposed on some step other
  layers than the plan's actions say (``plan.actions(step).refresh``) --
  e.g. a regression to one refresh step; the per-step counts are printed --
  or if a refresh step's eigen gauges are missing or do not split
  ``kfac/eigen_solve_ms``: ``kfac/eigen_caller_ms``, the part the step's own
  thread solved, must lie between 0 and the solve time, and
  ``kfac/eigen_hidden_ms``, the part of the eigen worker's solve time the
  step did not wait for, between 0 and solve minus caller; beside the
  messages table it prints the factor round's bytes per update, each rank's
  eigen solve, hidden and caller milliseconds and each rank's median
  optimizer step, pipeline flush and K-FAC write-back, :data:`GLUE_SPANS`);
* ``benchmarks/bench_comm_fusion.py`` imports :func:`run_traced_bert`,
  :func:`workload_spec_for_run`, :func:`modeled_schedule_for_run` and
  :func:`kfac_traffic` to print modeled-vs-measured columns;
* the observability tests, as the canonical "real workload, real ranks"
  fixture.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import List, Optional

__all__ = ["run_traced_bert", "workload_spec_for_run", "modeled_schedule_for_run", "kfac_traffic", "main"]

#: The spans whose work is once per parameter by nature (what is left of it runs once per block):
#: their share of a step is Python glue under the interpreter lock, so every CI log prints it.
GLUE_SPANS = ("trainer/optimizer_step", "pipeline/flush", "kfac/scale_and_update")


def run_traced_bert(
    world_size: int = 4,
    steps: int = 12,
    grad_worker_frac: float = 0.5,
    seed: int = 0,
    factor_update_freq: int = 5,
    inv_update_freq: int = 10,
    use_pipeline: bool = True,
    bucket_cap_mb: float = 25.0,
):
    """Train a tiny BERT for ``steps`` iterations on ``world_size`` threaded ranks.

    Every rank runs with its communicator's tracer enabled, a
    gradient pipeline instance the trainer arms (``use_pipeline=False`` leaves
    the trainer on its own pipeline, which posts everything at ``flush()``)
    and the fused nonblocking collective engine, so the returned per-rank
    tracers carry comm spans overlapping the backward spans.  Returns
    ``(tracers, run_info)`` where ``run_info`` records the preconditioner's
    :class:`~repro.kfac.KFACConfig` (``"config"``, as ``to_dict()``: what the
    models need to rebuild the run's plan), the digest of each rank's plan
    (``"plan_digests"``), each rank's final
    :meth:`KFAC.memory_usage` (``"memory_usage"``), the bytes of all
    registered factors (``"registered_factor_bytes"``), the bytes the factors
    each rank holds take as packed triangles, worked out from their dimensions
    (``"held_triangle_bytes"``), the layers decomposed on each step (rank 0's
    ``kfac/eigen_updates/<layer>`` counts, ``"decomposed_per_step"``), each
    rank's ``(kfac/eigen_solve_ms, kfac/eigen_hidden_ms,
    kfac/eigen_caller_ms)`` gauges after every step that refreshed
    (``"eigen_gauges"``), what each rank's
    registry counted (``"counted"``: per rank ``{op: (messages, bytes)}``) and
    the part of it that is data-parallel gradient averaging, per step
    (``"grad_sync"``: the same pair, from the averaging subscriber's own specs
    under the run's bucket cap).
    """
    from ..distributed.collectives import BucketManager
    from ..distributed.ddp import GradientAveragingSubscriber
    from ..distributed.threaded import run_spmd

    def program(comm):
        import repro.optim as optim

        from ..experiments.workloads import build_bert_workload
        from ..kfac import KFAC
        from ..training.pipeline import GradientPipeline
        from ..training.trainer import Trainer

        workload = build_bert_workload(seed=seed, num_train=16 * steps, num_val=16)
        model = workload.model
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        preconditioner = KFAC(
            model,
            lr=0.05,
            factor_update_freq=factor_update_freq,
            inv_update_freq=inv_update_freq,
            grad_worker_frac=grad_worker_frac,
            bucket_cap_mb=bucket_cap_mb,
            comm=comm,
            skip_modules=workload.kfac_skip_modules,
        )
        comm.tracer.enabled = True
        pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=bucket_cap_mb) if use_pipeline else None
        trainer = Trainer(
            model, optimizer, workload.forward_loss, preconditioner=preconditioner, comm=comm, pipeline=pipeline
        )
        # 16 samples per step is half a batch: go round the loader until ``steps`` steps ran.
        epochs = itertools.chain.from_iterable(itertools.repeat(workload.train_loader))
        decomposed, eigen_gauges = [], []
        for batch in itertools.islice(epochs, steps):
            before = comm.tracer.counters()
            trainer.train_step(batch)
            after = comm.tracer.counters()
            key = "kfac/eigen_updates/{}".format
            decomposed.append(tuple(name for name in preconditioner.layers if after.get(key(name)) != before.get(key(name))))
            if decomposed[-1]:
                gauges = comm.tracer.gauges()
                eigen_gauges.append(tuple(gauges.get(f"kfac/eigen_{part}_ms") for part in ("solve", "hidden", "caller")))
        plan = preconditioner.plan
        registered = sum(plan.policy.factor_bytes(group.layer) for group in plan.groups.values())
        # From the dimensions, not from what the arrays or the plan say: n(n+1)/2 per dense factor held.
        itemsize = preconditioner.precision.factor_dtype.itemsize
        triangles = itemsize * sum(
            repr_.dim * (repr_.dim + 1) // 2 if repr_.is_dense else repr_.packed_numel
            for name, layer in preconditioner.layers.items()
            for which, repr_ in (("a", layer.a_repr), ("g", layer.g_repr))
            if preconditioner.holds_factor(name, which)
        )
        averaging = GradientAveragingSubscriber(model).specs(1.0, comm.world_size)
        grad_buckets = BucketManager(bucket_cap_mb).build([(s.key, s.shape, s.dtype) for s in averaging])
        grad_sync = (len(grad_buckets), sum(bucket.nbytes for bucket in grad_buckets))
        counters = comm.tracer.counters()
        counted = {
            op: (int(counters.get(f"comm/{op}/messages", 0)), int(counters.get(f"comm/{op}/bytes", 0)))
            for op in ("allreduce", "broadcast")
        }
        return {
            "tracer": comm.tracer,
            "config": preconditioner.config.to_dict(),
            "plan_digest": plan.digest(),
            "memory_usage": preconditioner.memory_usage(),
            "registered_factor_bytes": registered,
            "held_triangle_bytes": triangles,
            "decomposed_per_step": decomposed,
            "eigen_gauges": eigen_gauges,
            "grad_sync": grad_sync,
            "counted": counted,
        }

    per_rank = run_spmd(world_size, program)
    run_info = {
        "world_size": world_size,
        "steps": steps,
        "seed": seed,
        "use_pipeline": use_pipeline,
        "config": per_rank[0]["config"],
        "plan_digests": [entry["plan_digest"] for entry in per_rank],
        "memory_usage": [entry["memory_usage"] for entry in per_rank],
        "registered_factor_bytes": per_rank[0]["registered_factor_bytes"],
        "held_triangle_bytes": [entry["held_triangle_bytes"] for entry in per_rank],
        "decomposed_per_step": per_rank[0]["decomposed_per_step"],
        "eigen_gauges": [entry["eigen_gauges"] for entry in per_rank],
        "grad_sync": per_rank[0]["grad_sync"],
        "counted": [entry["counted"] for entry in per_rank],
    }
    return [entry["tracer"] for entry in per_rank], run_info


def workload_spec_for_run(tracers, run_info):
    """The :class:`~repro.kfac.KFACWorkloadSpec` of a traced run, from the architecture rather than the engine.

    Rebuilds the same tiny BERT (same seed), collects its K-FAC layer shapes,
    takes the run's config (``run_info["config"]``) and calibrates the
    per-iteration compute time from the *measured* forward+backward+optimizer
    spans so model and measurement share a time base.
    """
    from ..experiments.model_shapes import collect_layer_shapes
    from ..experiments.workloads import build_bert_workload
    from ..kfac import KFACConfig, KFACWorkloadSpec
    from .metrics import MetricsReport

    workload = build_bert_workload(seed=run_info["seed"], num_train=16, num_val=16)
    report = MetricsReport.from_tracers(tracers)
    compute_time = (
        report.mean("trainer/forward")
        + report.mean("trainer/backward")
        + report.mean("trainer/optimizer_step")
    )
    return KFACWorkloadSpec(
        name="bert_tiny_traced",
        # Everything K-FAC registers: the norm layers' diagonal-G factors are on the wire too.
        layers=collect_layer_shapes(workload.model, skip_modules=workload.kfac_skip_modules, include_structured=True),
        param_count=sum(int(p.data.size) for p in workload.model.parameters()),
        local_batch_size=16,
        baseline_compute_time=max(compute_time, 1e-6),
        config=KFACConfig.from_dict(run_info["config"]),
    )


def _run_plan(spec, run_info):
    """The plan the models read for a traced run: ``spec``'s config at the run's world size."""
    return spec.plan(run_info["world_size"], spec.config.grad_worker_frac)


def modeled_schedule_for_run(spec, run_info):
    """The analytic :class:`~repro.kfac.CommSchedule` of a traced run: ``spec`` priced as the run posted, hooked or not."""
    from ..kfac import model_comm_schedule

    world, frac = run_info["world_size"], spec.config.grad_worker_frac
    return model_comm_schedule(spec, world, frac, hooked=run_info["use_pipeline"])


def kfac_traffic(spec, run_info):
    """Per rank, ``{op: ((modeled messages, bytes), (counted messages, bytes))}`` for the K-FAC collectives of a run.

    Modeled: the rank's slice of ``spec``'s plan step by step over the run's
    steps -- the messages whose group contains the rank (a factor round on a
    fold, the eigen round of the layers the plan decomposes on that step, a
    gradient round every step).  Counted: the rank's registry, minus the
    data-parallel gradient averaging.  The model reads the plan the engine
    follows, so the two are equal on every rank -- any difference is a bug.
    """
    import numpy as np

    steps = run_info["steps"]
    plan = _run_plan(spec, run_info)
    rounds = [plan.messages(hooked=run_info["use_pipeline"], step=step) for step in range(steps)]
    traffic = []
    for rank, counted in enumerate(run_info["counted"]):
        expected = {"allreduce": np.zeros(2, dtype=np.int64), "broadcast": np.zeros(2, dtype=np.int64)}
        for messages in rounds:
            for op, sent in (("allreduce", messages["factor"]), ("broadcast", messages["eigen"] + messages["gradient"])):
                mine = [nbytes for members, nbytes in sent if rank in members]
                expected[op] += (len(mine), sum(mine))
        measured = {op: np.array(counted[op]) for op in expected}
        measured["allreduce"] -= steps * np.array(run_info["grad_sync"])
        traffic.append({op: (tuple(map(int, expected[op])), tuple(map(int, measured[op]))) for op in expected})
    return traffic


def plan_digest_problems(spec, run_info) -> List[str]:
    """The ranks whose plan is not the one the models build from ``spec``: placement, rounds, cadence or cap."""
    modeled = _run_plan(spec, run_info).digest()
    return [
        f"rank {rank} follows plan {digest}, the models read {modeled}"
        for rank, digest in enumerate(run_info["plan_digests"])
        if digest != modeled
    ]


def staggered_refresh_problems(spec, run_info) -> List[str]:
    """Where rank 0's decompositions differ from the plan's actions, step by step."""
    plan = _run_plan(spec, run_info)
    planned = [plan.actions(step).refresh for step in range(run_info["steps"])]
    return [
        f"step {step} decomposed {list(done)}, the plan's actions {list(refresh)}"
        for step, (done, refresh) in enumerate(zip(run_info["decomposed_per_step"], planned))
        if done != refresh
    ]


def eigen_overlap_problems(run_info) -> List[str]:
    """The refresh steps whose eigen gauges are missing or do not split the solve time.

    ``kfac/eigen_caller_ms`` (solved on the step's own thread) must lie in
    ``[0, kfac/eigen_solve_ms]`` and ``kfac/eigen_hidden_ms`` (the worker's
    time no step waited for) in ``[0, solve - caller]``.
    """
    return [
        f"rank {rank} step {index} of those that refreshed: eigen_solve_ms {solve}, eigen_hidden_ms {hidden}, "
        f"eigen_caller_ms {caller}"
        for rank, per_step in enumerate(run_info["eigen_gauges"])
        for index, (solve, hidden, caller) in enumerate(per_step)
        if None in (solve, hidden, caller) or not (0.0 <= caller <= solve and 0.0 <= hidden <= solve - caller)
    ]


def main(argv: Optional[List[str]] = None) -> int:
    from ..experiments.reporting import format_table
    from .export import validate_chrome_trace, write_chrome_trace
    from .metrics import MetricsReport
    from .overlap import measured_comm_schedule

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="trace.json", help="Chrome trace output path")
    parser.add_argument("--world", type=int, default=4, help="threaded world size")
    parser.add_argument("--steps", type=int, default=12, help="optimization steps (cadence 5 / 10: past one interval)")
    parser.add_argument("--frac", type=float, default=0.5, help="grad_worker_frac")
    parser.add_argument("--no-pipeline", action="store_true", help="post at flush() instead of during backward")
    args = parser.parse_args(argv)

    tracers, run_info = run_traced_bert(
        world_size=args.world,
        steps=args.steps,
        grad_worker_frac=args.frac,
        use_pipeline=not args.no_pipeline,
    )
    path = write_chrome_trace(args.out, tracers)
    validate_chrome_trace(path.read_text())
    print(f"wrote {path} ({len(tracers)} ranks)")

    report = MetricsReport.from_tracers(tracers)
    print(
        format_table(
            ["span", "count", "mean ms", "p50 ms", "p95 ms", "max ms"],
            report.format_rows(),
            title="\nAggregated span statistics (all ranks)",
        )
    )
    print("\nRank 0's registry:")
    for name, value in sorted(tracers[0].counters().items()):
        print(f"  {name}: {value:g}")

    measured = measured_comm_schedule(tracers)
    spec = workload_spec_for_run(tracers, run_info)
    problems = plan_digest_problems(spec, run_info)
    for problem in problems:
        print(f"ERROR: {problem}: the models would price another plan than the engine runs", file=sys.stderr)
    if problems:
        return 1
    print(f"\nEvery rank's plan is the models' plan (digest {run_info['plan_digests'][0]})")
    modeled = modeled_schedule_for_run(spec, run_info)
    print(
        format_table(
            ["", "comm time (ms)", "exposed (ms)", "hidden (ms)"],
            [
                [
                    "modeled",
                    round(modeled.kfac_comm_time * 1e3, 3),
                    round(modeled.exposed_comm_time * 1e3, 3),
                    round(modeled.hidden_comm_time * 1e3, 3),
                ],
                [
                    "measured",
                    round(measured.comm_time * 1e3, 3),
                    round(measured.exposed_comm_time * 1e3, 3),
                    round(measured.hidden_comm_time * 1e3, 3),
                ],
            ],
            title="\nExposed communication: modeled vs measured (busiest rank)",
        )
    )
    traffic = kfac_traffic(spec, run_info)
    print(
        format_table(
            ["rank", "K-FAC collectives", "modeled messages", "counted messages", "modeled bytes", "counted bytes"],
            [
                [rank, op, expected[0], counted[0], expected[1], counted[1]]
                for rank, per_op in enumerate(traffic)
                for op, (expected, counted) in per_op.items()
            ],
            title=(
                f"\nK-FAC traffic over {run_info['steps']} steps: each rank's slice of the plan's messages "
                f"({modeled.messages_per_update} messages, {modeled.comm_bytes_per_update} bytes per full update; "
                "its factor round {} messages, {} bytes: packed triangles) ".format(*modeled.rounds["factor"])
                + "vs that rank's registry"
            ),
        )
    )
    glue_rows = []
    for tracer in tracers:
        spans = MetricsReport.from_tracers(tracer).spans
        glue_rows.append([tracer.rank, *(round(spans[name].p50 * 1e3, 3) for name in GLUE_SPANS)])
    print(
        format_table(
            ["rank", *GLUE_SPANS],
            glue_rows,
            title="\nPer-parameter glue of a step, median ms per rank (fused optimizer step, gradient seam, K-FAC write-back)",
        )
    )
    if any(expected != counted for per_op in traffic for expected, counted in per_op.values()):
        print("ERROR: a rank's modeled K-FAC messages or bytes differ from what its registry counted", file=sys.stderr)
        return 1
    print(
        f"\nLayers decomposed per step (cadence {spec.config.factor_update_freq} / {spec.config.inv_update_freq}): "
        + " ".join(f"{step}:{len(layers)}" for step, layers in enumerate(run_info["decomposed_per_step"]))
    )
    problems = staggered_refresh_problems(spec, run_info)
    for problem in problems:
        print(f"ERROR: {problem}: the step did not carry out the plan's actions", file=sys.stderr)
    if problems:
        return 1
    problems = eigen_overlap_problems(run_info)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(
        format_table(
            ["rank", "eigen_solve_ms", "eigen_hidden_ms", "eigen_caller_ms"],
            [
                [rank, *(round(sum(column), 3) for column in zip(*per_step))]
                for rank, per_step in enumerate(run_info["eigen_gauges"])
            ],
            title=(
                "\nEigen solves, summed over the refresh steps: their time, the worker's part no step waited for, "
                "and the part the step's own thread solved"
            ),
        )
    )
    print("\nK-FAC state per rank (bytes):")
    for rank, usage in enumerate(run_info["memory_usage"]):
        print(f"  rank {rank}: " + ", ".join(f"{key}={value}" for key, value in usage.items()))
    held = sum(usage["factors"] for usage in run_info["memory_usage"])
    registered = run_info["registered_factor_bytes"]
    print(f"  running factors over all ranks: {held} bytes; all registered factors, once: {registered} bytes")
    if held != registered:
        # At the default knobs the plan's holder of a factor is the one rank
        # that decomposes it; more bytes than that is the replicated layout.
        print("ERROR: the running factors summed over ranks are not every factor stored once", file=sys.stderr)
        return 1
    for rank, (usage, triangles) in enumerate(zip(run_info["memory_usage"], run_info["held_triangle_bytes"])):
        if usage["factors"] != triangles:
            # A symmetric factor is stored once: n(n+1)/2 elements, not the n x n square.
            print(
                f"ERROR: rank {rank} holds {usage['factors']} factor bytes, but the packed triangles of the "
                f"factors it holds are {triangles} bytes",
                file=sys.stderr,
            )
            return 1
    if measured.exposed_comm_time > measured.comm_time + 1e-9:
        print("ERROR: measured exposed comm exceeds total comm occupancy", file=sys.stderr)
        return 1
    if measured.messages == 0:
        print("ERROR: trace contains no communication spans", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
