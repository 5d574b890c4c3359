"""Table 5: per-GPU memory usage with and without K-FAC (min/max grad_worker_frac).

For ResNet-18/50/101/152, Mask R-CNN and BERT-Large on 64 GPUs the paper
reports the absolute per-GPU memory for the baseline optimizer and the
percentage increase when K-FAC is enabled with grad_worker_frac = 1/64 (min)
and 1 (max).  The K-FAC overhead (factors + eigen decompositions + cached
eigenvalue outer products) is computed here byte-exactly from the real layer
shapes; the baseline absolute memory additionally includes an activation
estimate so the delta percentages are on a comparable scale to the paper's.

Two layouts are printed side by side, so the paper columns keep comparing like
with like: the **paper's** (every rank keeps every running factor, next to
``PAPER_TABLE5``) and **this tree's** (a factor lives only on the rank that
decomposes it, ``KFACMemoryModel.breakdown``), with a live measured column
from real threaded runs; everything is recorded in ``BENCH_memory.json``.
"""

from repro.experiments import PAPER_RESULTS, format_table, measured_memory_report, paper_workload_spec
from repro.memory import KFACMemoryModel

from conftest import (
    busiest_rank_at_paper_scale,
    busiest_rank_table,
    measured_memory_rows,
    measured_memory_table,
    paper_layout_overhead,
    print_section,
    record_memory_bench,
)

MB = 1024 ** 2
WORLD_SIZE = 64

# Paper Table 5 values for side-by-side reporting: (precision, SGD abs MB, min delta %, max delta %).
PAPER_TABLE5 = {
    "resnet18": ("FP32", 2454, 16.7, 32.8),
    "resnet50": ("FP32", 4762, 13.3, 38.8),
    "resnet101": ("FP32", 6313, 18.2, 38.7),
    "resnet152": ("FP32", 6620, 23.9, 37.3),
    "mask_rcnn": ("FP32", 6553, 1.5, 2.9),
    "bert_large": ("FP16", 8254, 15.8, 45.8),
}

# Activation bytes per local-batch sample, chosen so the modelled baseline
# absolute memory is in the same regime as the paper's measured "SGD Abs."
ACTIVATION_PER_SAMPLE = {
    "resnet18": 40 * MB,
    "resnet50": 100 * MB,
    "resnet101": 140 * MB,
    "resnet152": 190 * MB,
    "mask_rcnn": 2600 * MB,
    "bert_large": 12 * MB,
}

OPTIMIZER = {
    "resnet18": "sgd",
    "resnet50": "sgd",
    "resnet101": "sgd",
    "resnet152": "sgd",
    "mask_rcnn": "sgd",
    "bert_large": "lamb",
}


def _memory_model(name):
    precision = "fp16" if name == "bert_large" else "fp32"
    spec = paper_workload_spec(name, precision=precision)
    return spec, KFACMemoryModel(
        spec.layers,
        spec.param_count,
        optimizer=OPTIMIZER[name],
        weight_dtype_bytes=2 if precision == "fp16" else 4,
        activation_bytes_per_sample=ACTIVATION_PER_SAMPLE[name],
        config=spec.config,
    )


def test_table05_memory_usage(benchmark):
    def compute_rows():
        rows, sharded_rows = [], []
        for name, (precision, paper_abs, paper_min, paper_max) in PAPER_TABLE5.items():
            spec, memory = _memory_model(name)
            baseline = memory.breakdown(WORLD_SIZE, None, local_batch_size=spec.local_batch_size).baseline_total
            # The paper's layout, as the mean rank the paper's per-GPU measurements correspond to.
            minimum = paper_layout_overhead(memory, WORLD_SIZE, 1.0 / WORLD_SIZE, "mean")
            maximum = paper_layout_overhead(memory, WORLD_SIZE, 1.0, "mean")
            rows.append(
                [
                    name,
                    precision,
                    round(baseline / MB),
                    round(minimum / MB),
                    round(100.0 * minimum / baseline, 1),
                    round(maximum / MB),
                    round(100.0 * maximum / baseline, 1),
                    round(maximum / max(minimum, 1), 2),
                    f"{paper_abs} / +{paper_min}% / +{paper_max}%",
                ]
            )
            # This tree's layout, mean and busiest rank (what a per-GPU budget has to fit).
            sharded = {
                (label, rank): memory.overhead_bytes(WORLD_SIZE, frac, rank=rank)
                for label, frac in (("min", 1.0 / WORLD_SIZE), ("max", 1.0))
                for rank in ("mean", "max")
            }
            sharded_rows.append(
                [
                    name,
                    round(sharded["min", "mean"] / MB),
                    round(100.0 * sharded["min", "mean"] / baseline, 1),
                    round(sharded["min", "max"] / MB),
                    round(paper_layout_overhead(memory, WORLD_SIZE, 1.0 / WORLD_SIZE, "max") / MB),
                    round(sharded["max", "mean"] / MB),
                    round(100.0 * sharded["max", "mean"] / baseline, 1),
                    round(sharded["max", "max"] / MB),
                    round(paper_layout_overhead(memory, WORLD_SIZE, 1.0, "max") / MB),
                ]
            )
        return rows, sharded_rows

    rows, sharded_rows = benchmark(compute_rows)
    paper_headers = [
        "Model",
        "Precision",
        "Baseline abs (MB)",
        "K-FAC min ovh (MB)",
        "min delta %",
        "K-FAC max ovh (MB)",
        "max delta %",
        "max/min ratio",
        "Paper (abs / min / max)",
    ]
    sharded_headers = [
        "Model",
        "min ovh, mean rank (MB)",
        "min delta %",
        "min ovh, busiest rank (MB)",
        "(paper layout, busiest)",
        "max ovh, mean rank (MB)",
        "max delta %",
        "max ovh, busiest rank (MB)",
        "(paper layout, busiest)",
    ]
    print_section(f"Table 5 - Per-GPU memory on {WORLD_SIZE} GPUs (modelled, the paper's layout: factors on every rank)")
    print(format_table(paper_headers, rows))
    paper_ratio = PAPER_RESULTS["table5_overhead_ratio"]
    print(f"\nPaper: max K-FAC overhead is {paper_ratio['min']}-{paper_ratio['max']}x the minimum overhead.")
    print_section("Table 5 - the same on this tree's layout: a factor lives only on the rank that decomposes it")
    print(format_table(sharded_headers, sharded_rows))
    print(f"\nBusiest of {WORLD_SIZE} ranks at MEM-OPT, fp32 (a dense factor held as its triangle, not the square):")
    busiest = busiest_rank_at_paper_scale(WORLD_SIZE)
    print(busiest_rank_table(busiest))
    for row in busiest:
        assert row["stored once, packed triangle (MB)"] < row["stored once, square (MB)"] < row["paper layout (MB)"]
    record_memory_bench(
        "table05",
        {
            "world_size": WORLD_SIZE,
            "paper_layout": [dict(zip(paper_headers, row)) for row in rows],
            "this_tree": [dict(zip(sharded_headers, row)) for row in sharded_rows],
        },
    )

    by_name = {row[0]: row for row in rows}
    # Shape checks mirroring the paper's observations.
    for row in rows:
        assert row[5] >= row[3], f"{row[0]}: max overhead must exceed min overhead"
        assert 1.0 <= row[7] <= 3.5, f"{row[0]}: overhead ratio {row[7]} outside the paper's regime"
    # Mask R-CNN has by far the smallest relative overhead; BERT-Large the largest absolute overhead growth.
    assert by_name["mask_rcnn"][6] < min(by_name[n][6] for n in by_name if n != "mask_rcnn")
    assert by_name["bert_large"][5] - by_name["bert_large"][3] == max(
        by_name[n][5] - by_name[n][3] for n in by_name
    )


def test_table05_live_memory_validates_model(benchmark):
    """Live per-rank K-FAC state from a real threaded run, vs the analytic model.

    The paper-scale shapes above are analytic by necessity; this companion
    measurement trains a real (small) workload under the min/max strategies
    and checks that the bytes `KFAC.memory_usage()` actually holds per rank
    match the prediction exactly — so the modelled Table 4/5 columns are
    backed by live state, not just formulae.
    """
    WORLD = 4

    def measure():
        return {
            frac: measured_memory_report("mlp", world_size=WORLD, grad_worker_frac=frac, steps=2)
            for frac in (1.0 / WORLD, 1.0)
        }

    reports = benchmark(measure)
    rows = []
    for frac, report in reports.items():
        for rank, entry in enumerate(report["per_rank"]):
            measured, predicted = entry["measured"], entry["predicted"]
            assert measured == predicted, f"rank {rank}: live {measured} != analytic {predicted}"
        label = "MEM-OPT (1/4)" if frac < 1.0 else "COMM-OPT (1)"
        rows.append(
            [
                label,
                round(report["measured_total_mean"] / 1024, 1),
                round(report["measured_total_max"] / 1024, 1),
                round(max(e["measured"]["factors"] for e in report["per_rank"]) / 1024, 1),
                round(max(e["measured"]["eigen"] for e in report["per_rank"]) / 1024, 1),
            ]
        )
    print_section(f"Table 5 companion - live measured K-FAC state, MLP workload, {WORLD} threaded ranks")
    print(
        format_table(
            ["Strategy", "mean total (KiB)", "max total (KiB)", "max factors (KiB)", "max eigen (KiB)"],
            rows,
        )
    )
    # COMM-OPT caches eigen state everywhere; MEM-OPT only on the single
    # gradient worker per layer — the live totals must reflect that ordering.
    assert rows[1][2] >= rows[0][2]


def test_table05_measured_column(benchmark):
    """The measured column: live busiest-rank and mean-rank K-FAC state at world 2 and 4 on the
    ``bert`` and ``cifar_resnet`` workloads, beside the paper layout for the same layers.  The
    measurement already held every rank to this tree's model byte for byte."""
    measured_memory = benchmark.pedantic(measured_memory_rows, iterations=1, rounds=1)
    print_section("Table 5 - measured K-FAC state per rank (threaded ranks, refresh every step)")
    print(measured_memory_table(measured_memory, "max"))
    print()
    print(measured_memory_table(measured_memory, "mean"))
    for row in measured_memory:
        # Every factor is stored once, so no rank holds what the paper layout charges every rank.
        assert max(row["measured_bytes_per_rank"]) < row["paper_layout_max_bytes"]
