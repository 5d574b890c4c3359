"""Figure 6: average iteration time and K-FAC memory overhead vs grad_worker_frac.

The paper sweeps grad_worker_frac over {1/64, 1/32, ..., 1/2, 1} on 64 V100s
for ResNet-18/50/101/152 (FP32), Mask R-CNN (FP32) and BERT-Large (FP16),
showing that (a) memory overhead grows linearly with the fraction, (b) the
ResNet family's iteration time *improves* with more gradient workers (24.4%
for ResNet-50), and (c) Mask R-CNN and BERT-Large iteration times are flat
because they are not communication-bound.  This benchmark regenerates all six
panels from the analytic iteration-time model and the byte-exact memory model
evaluated on the real layer shapes.

The memory axis is printed for two layouts: the **paper's** (every rank keeps
every running factor: the linear-in-fraction curve of the figure, the numbers
this script has always printed) and **this tree's** (a factor lives only on the
rank that decomposes it, so the mean rank holds 1/64 of them).  A measured
column and ``BENCH_memory.json`` come with them.
"""

import dataclasses

import pytest

from repro.experiments import PAPER_RESULTS, format_table, paper_workload_spec, sweep_grad_worker_frac

from conftest import (
    busiest_rank_at_paper_scale,
    busiest_rank_table,
    measured_memory_rows,
    measured_memory_table,
    print_section,
    record_memory_bench,
)

MB = 1024 ** 2
WORLD_SIZE = 64
FRACS = [1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]

PANELS = [
    ("resnet18", "fp32"),
    ("resnet50", "fp32"),
    ("resnet101", "fp32"),
    ("resnet152", "fp32"),
    ("mask_rcnn", "fp32"),
    ("bert_large", "fp16"),
]


@pytest.mark.parametrize("name,precision", PANELS, ids=[p[0] for p in PANELS])
def test_fig06_iteration_time_and_memory_vs_frac(benchmark, name, precision):
    spec = dataclasses.replace(
        paper_workload_spec(name, precision=precision), optimizer="lamb" if name == "bert_large" else "sgd"
    )

    results = benchmark.pedantic(
        lambda: sweep_grad_worker_frac(spec, WORLD_SIZE, FRACS),
        iterations=1,
        rounds=1,
    )

    rows = []
    for frac in FRACS:
        entry = results[frac]
        rows.append(
            [
                f"1/{round(1 / frac)}" if frac < 1 else "1",
                round(entry["iteration_time"], 4),
                round(entry["kfac_overhead_time"], 4),
                round(entry["baseline_iteration_time"], 4),
                round(entry["replicated_memory_overhead_bytes"] / MB, 1),
                round(entry["memory_overhead_bytes"] / MB, 1),
            ]
        )
    headers = [
        "grad_worker_frac",
        "avg iter time (s)",
        "K-FAC overhead (s)",
        "baseline iter (s)",
        "K-FAC memory ovh (MB)",
        "this tree's layout (MB)",
    ]
    print_section(f"Figure 6 - {name} ({precision.upper()}): grad_worker_frac sweep on {WORLD_SIZE} GPUs")
    print(format_table(headers, rows))
    record_memory_bench(f"fig06/{name}", [dict(zip(headers, row)) for row in rows])

    min_frac, max_frac = FRACS[0], FRACS[-1]
    time_min = results[min_frac]["iteration_time"]
    time_max = results[max_frac]["iteration_time"]
    speedup = 100.0 * (time_min - time_max) / time_min
    print(f"\nIteration-time change from frac=1/64 to frac=1: {speedup:.1f}% (positive = faster with more gradient workers)")
    if name == "resnet50":
        print(f"Paper: {PAPER_RESULTS['figure6_resnet50']['speedup_pct_frac1_vs_min']}% faster for ResNet-50 (FP32).")

    for key in ("replicated_memory_overhead_bytes", "memory_overhead_bytes"):
        memories = [results[frac][key] for frac in FRACS]
        assert all(a < b for a, b in zip(memories, memories[1:])), "memory overhead must grow with grad_worker_frac"
    # The mean rank of this tree holds 1/64 of the factors the paper's layout puts on every rank.
    assert all(results[frac]["memory_overhead_bytes"] < results[frac]["replicated_memory_overhead_bytes"] for frac in FRACS)

    if name.startswith("resnet"):
        # Communication-bound models get faster as the fraction grows.
        assert time_max < time_min
    else:
        # Mask R-CNN / BERT-Large: iteration time is essentially flat (within 3%).
        assert abs(time_max - time_min) / time_min < 0.03


def test_fig06_measured_column(benchmark):
    """The figure's axis is the mean rank: live, at world 2 and 4, beside the paper layout for the same layers."""
    measured_memory = benchmark.pedantic(measured_memory_rows, iterations=1, rounds=1)
    print_section("Figure 6 - measured K-FAC state of the mean rank (threaded ranks, refresh every step)")
    print(measured_memory_table(measured_memory, "mean"))
    print(f"\nThe figure's left end (frac = 1/{WORLD_SIZE}), busiest rank, fp32:")
    print(busiest_rank_table(busiest_rank_at_paper_scale(WORLD_SIZE)))
    for row in measured_memory:
        mean = sum(row["measured_bytes_per_rank"]) / row["world"]
        assert mean < row["paper_layout_mean_bytes"]
