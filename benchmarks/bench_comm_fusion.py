"""Communication fusion: one schedule, two bucket caps, modeled and measured.

The asynchronous bucketed collective engine (``repro.distributed.collectives``)
coalesces K-FAC's per-layer factor allreduces, eigen broadcasts and
preconditioned-gradient broadcasts into capped fused buffers, paying one
latency (alpha) term per bucket instead of one per tensor.  There is one
schedule -- the strategy's plan, bucketed by the engine's own grouping -- so
this benchmark is a *cap sweep* on it: 0.001 MB (a cap below any tensor: one
message per tensor) and 25 MB (the default), priced with
:func:`repro.kfac.model_comm_schedule` on the BERT-Large layer set across
MEM-OPT / HYBRID-OPT / COMM-OPT and world sizes >= 8.  It asserts the 25 MB
cap issues strictly fewer collective messages and a strictly lower modeled
iteration time at identical byte volume, and emits the numbers to
``BENCH_comm_fusion.json``.  Beside each modeled row it can run --
world 2 and 4, on the tiny BERT -- it prints what each rank's registry
counted for one full update beside that rank's slice of the plan (the
messages whose group contains it): the model reads the plan the engine
follows, so the residual is 0 messages and 0 bytes on every rank, and
asserted.

A second test closes the loop on *measured* communication: a tiny BERT is
trained for real through a ``Trainer`` on 4 threaded ranks with tracing
enabled, each rank's comm spans are merged into their union
(:func:`repro.observability.measured_comm_schedule`), and the measured comm
time is reported next to the analytic model's prediction for the same layer
set (``BENCH_comm_fusion_measured.json``).  Every collective is posted after
backward, so all of it is on the critical path; the tier-1 suite holds that
(``tests/test_observability.py::TestTracedTrainingArtifacts::test_no_collective_is_in_flight_during_backward``).
"""

import dataclasses
from pathlib import Path

from repro.experiments import format_table, paper_workload_spec, write_bench_json
from repro.kfac import model_comm_schedule
from repro.observability import MetricsReport, measured_comm_schedule
from repro.observability.smoke import kfac_traffic, modeled_schedule_for_run, run_traced_bert, workload_spec_for_run

from conftest import print_section

WORLD_SIZES = [8, 16, 64]
MEASURED_WORLD_SIZES = [2, 4]
UNFUSED_CAP_MB = 0.001  # below any tensor: every tensor travels alone
BUCKET_CAP_MB = 25.0
OUTPUT = Path(__file__).with_name("BENCH_comm_fusion.json")
MEASURED_OUTPUT = Path(__file__).with_name("BENCH_comm_fusion_measured.json")


def strategy_fracs(world_size):
    fracs = {"MEM-OPT": 1.0 / world_size, "HYBRID-OPT (1/2)": 0.5, "COMM-OPT": 1.0}
    if world_size == 2:
        del fracs["HYBRID-OPT (1/2)"]  # at world 2 a fraction of 1/2 *is* MEM-OPT
    return fracs


def measured_residuals():
    """One full update of the tiny BERT per (world, strategy, bucket cap): each rank's plan slice vs its registry."""
    rows = []
    for world_size in MEASURED_WORLD_SIZES:
        for label, frac in strategy_fracs(world_size).items():
            for mode, cap in (("0.001 MB", UNFUSED_CAP_MB), ("25 MB", BUCKET_CAP_MB)):
                tracers, run_info = run_traced_bert(
                    world_size=world_size,
                    steps=1,
                    grad_worker_frac=frac,
                    factor_update_freq=1,
                    inv_update_freq=1,
                    bucket_cap_mb=cap,
                )
                spec = workload_spec_for_run(tracers, run_info)
                modeled = modeled_schedule_for_run(spec, run_info)
                traffic = kfac_traffic(spec, run_info)  # one step = one full update: per rank, per op (modeled, counted)
                assert all(
                    modeled_pair == counted_pair for per_op in traffic for modeled_pair, counted_pair in per_op.values()
                ), (label, world_size, mode)
                # Per rank, both ops: (messages, bytes) of its slice of the plan -- what it counted, asserted above.
                per_rank = [[sum(pair[0][index] for pair in per_op.values()) for index in (0, 1)] for per_op in traffic]
                rows.append(
                    {
                        "strategy": label,
                        "world_size": world_size,
                        "posting": mode,
                        "modeled_messages": modeled.messages_per_update,
                        "modeled_bytes": modeled.comm_bytes_per_update,
                        "rank_messages": [messages for messages, _ in per_rank],
                        "rank_bytes": [nbytes for _, nbytes in per_rank],
                    }
                )
    return rows


def test_comm_fusion_fewer_messages_and_lower_time(benchmark):
    spec = paper_workload_spec("bert_large")
    # The cap is a config knob: the plan each spec builds carries it.
    unfused_spec, fused_spec = (
        dataclasses.replace(spec, config=spec.config.replace(bucket_cap_mb=cap))
        for cap in (UNFUSED_CAP_MB, BUCKET_CAP_MB)
    )

    def sweep():
        results = []
        for world_size in WORLD_SIZES:
            for label, frac in strategy_fracs(world_size).items():
                unfused = model_comm_schedule(unfused_spec, world_size, frac)
                fused = model_comm_schedule(fused_spec, world_size, frac)
                results.append((label, world_size, frac, unfused, fused))
        return results

    results = benchmark(sweep)

    rows = []
    payload = {
        "workload": spec.name,
        "unfused_cap_mb": UNFUSED_CAP_MB,
        "bucket_cap_mb": BUCKET_CAP_MB,
        "results": [],
    }
    for label, world_size, frac, unfused, fused in results:
        message_reduction = 1.0 - fused.messages_per_update / unfused.messages_per_update
        time_saving_ms = (unfused.iteration_time - fused.iteration_time) * 1000
        rows.append(
            [
                label,
                world_size,
                unfused.messages_per_update,
                fused.messages_per_update,
                f"{100 * message_reduction:.1f}%",
                round(unfused.kfac_comm_time * 1000, 3),
                round(fused.kfac_comm_time * 1000, 3),
                round(time_saving_ms, 3),
            ]
        )
        payload["results"].append(
            {
                "strategy": label,
                "world_size": world_size,
                "grad_worker_frac": frac,
                "unfused_messages": unfused.messages_per_update,
                "fused_messages": fused.messages_per_update,
                "comm_bytes": unfused.comm_bytes_per_update,
                "unfused_kfac_comm_time": unfused.kfac_comm_time,
                "fused_kfac_comm_time": fused.kfac_comm_time,
                "unfused_iteration_time": unfused.iteration_time,
                "fused_iteration_time": fused.iteration_time,
            }
        )

        # Acceptance criteria: same bytes, strictly fewer messages, strictly
        # lower modeled iteration time for every strategy at world size >= 8.
        assert unfused.comm_bytes_per_update == fused.comm_bytes_per_update
        assert fused.messages_per_update < unfused.messages_per_update, (label, world_size)
        assert fused.iteration_time < unfused.iteration_time, (label, world_size)

    print_section("Bucket-cap sweep - BERT-Large layer set (modeled, EDR InfiniBand)")
    print(
        format_table(
            [
                "Strategy",
                "World",
                "msgs 0.001 MB",
                "msgs 25 MB",
                "msg reduction",
                "KFAC comm 0.001 MB (ms)",
                "KFAC comm 25 MB (ms)",
                "iter time saved (ms)",
            ],
            rows,
        )
    )

    payload["measured"] = measured_residuals()
    print_section(
        "The same schedule, run: tiny BERT, one full update (threaded world) - each rank's registry vs its "
        "slice of the plan, residual 0 by construction"
    )
    print(
        format_table(
            [
                "Strategy", "World", "posting", "msgs (world)", "bytes (world)", "msgs per rank", "bytes per rank",
                "residual",
            ],
            [
                [
                    row["strategy"],
                    row["world_size"],
                    row["posting"],
                    row["modeled_messages"],
                    row["modeled_bytes"],
                    row["rank_messages"],
                    row["rank_bytes"],
                    0,
                ]
                for row in payload["measured"]
            ],
        )
    )

    write_bench_json(OUTPUT, "comm_fusion", payload)
    print(f"\nWrote {OUTPUT}")


def test_comm_fusion_measured_vs_modeled(benchmark):
    """Measured comm time (live traced run, 4 threaded ranks) beside the model.

    The threaded world's collectives move through real shared memory with
    real thread synchronization — wall-clock magnitudes are not InfiniBand's
    — so the assertions check structural invariants, not absolute times:
    every rank posted comm spans.
    """
    world_size, steps = 4, 3

    def run():
        return run_traced_bert(world_size=world_size, steps=steps, grad_worker_frac=0.5)

    tracers, run_info = benchmark.pedantic(run, iterations=1, rounds=1)
    measured = measured_comm_schedule(tracers)
    spec = workload_spec_for_run(tracers, run_info)
    modeled = modeled_schedule_for_run(spec, run_info)
    report = MetricsReport.from_tracers(tracers)

    print_section("Communication: modeled (EDR InfiniBand) vs measured (threaded world)")
    print(
        format_table(
            ["", "messages", "comm time (ms)"],
            [
                ["modeled", modeled.messages_per_update, round(modeled.kfac_comm_time * 1e3, 3)],
                ["measured", measured.messages, round(measured.comm_time * 1e3, 3)],
            ],
        )
    )

    assert len(measured.per_rank) == world_size
    for rank, stats in measured.per_rank.items():
        assert stats["messages"] > 0, f"rank {rank} recorded no comm spans"

    write_bench_json(
        MEASURED_OUTPUT,
        "comm_fusion_measured",
        {
            "world_size": world_size,
            "steps": steps,
            "grad_worker_frac": run_info["config"]["grad_worker_frac"],
            "modeled": {
                "messages_per_update": modeled.messages_per_update,
                "kfac_comm_time": modeled.kfac_comm_time,
            },
            "measured": measured.to_dict(),
        },
        metrics=report.to_dict(),
    )
    print(f"\nWrote {MEASURED_OUTPUT}")
