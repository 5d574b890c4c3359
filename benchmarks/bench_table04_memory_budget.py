"""Table 4: convergence under a fixed per-GPU memory budget.

With a fixed memory budget the baseline optimizer can use a larger local batch
than KAISA (K-FAC state competes with activations for memory), but KAISA needs
far fewer iterations; the paper reports 32.5% (ResNet-50, 64 V100, 16 GB) and
41.6% (BERT-Large, 8 A100, 40 GB) end-to-end time reductions, and shows that
COMM-OPT (grad_worker_frac=1) does not even fit for ResNet-50 while
HYBRID-OPT (1/2) does.

This benchmark reproduces the decision procedure analytically: the byte-exact
memory model picks the maximum local batch size for every optimizer/strategy
under the paper's memory budgets, and the analytic iteration-time model plus
the paper's iteration counts produce the projected time-to-convergence.

The largest local batch is reported for two layouts of the running factors:
the **paper's** (every rank keeps every factor -- the columns this script has
always printed, unchanged) and **this tree's** (a factor lives only on the
rank that decomposes it, ``KFACMemoryModel.max_local_batch_size``), which is
what the fixed budget actually has to fit here; a measured column and
``BENCH_memory.json`` come with them.
"""

import dataclasses

from repro.distributed import A100, DGX_A100_FABRIC, EDR_INFINIBAND, V100, PerformanceModel
from repro.experiments import PAPER_RESULTS, format_table, paper_workload_spec
from repro.kfac import IterationTimeModel, KFACWorkloadSpec
from repro.memory import KFACMemoryModel

from conftest import (
    measured_memory_rows,
    measured_memory_table,
    paper_layout_overhead,
    print_section,
    record_memory_bench,
)

GB = 1024 ** 3
MB = 1024 ** 2

# Activation memory per sample (bytes), chosen so the baseline maximum local
# batch matches the paper's reported values (128 for ResNet-50 on 16 GB V100,
# 12 for BERT-Large phase 2 on 40 GB A100).
RESNET50_ACT_PER_SAMPLE = 100 * MB
BERT_ACT_PER_SAMPLE = 2600 * MB


def _rescale_compute(spec: KFACWorkloadSpec, batch: int) -> KFACWorkloadSpec:
    """Scale per-iteration compute time linearly with the local batch size."""
    return dataclasses.replace(
        spec,
        local_batch_size=batch,
        baseline_compute_time=spec.baseline_compute_time * batch / spec.local_batch_size,
    )


def _paper_layout_batch(memory: KFACMemoryModel, budget: int, world_size: int, frac) -> int:
    """``max_local_batch_size`` with every factor on every rank (the paper's layout)."""
    fixed = memory.breakdown(world_size, None).total
    if frac is not None:
        fixed += paper_layout_overhead(memory, world_size, frac, "max")
    return max(0, int((budget - fixed) // memory.activation_bytes_per_sample))


def test_table04_fixed_memory_budget(benchmark):
    def compute_table():
        rows = []

        # ---------------- ResNet-50 on 64 x 16 GB V100 --------------------------
        spec = paper_workload_spec("resnet50")
        memory = KFACMemoryModel(
            spec.layers,
            spec.param_count,
            optimizer="sgd",
            activation_bytes_per_sample=RESNET50_ACT_PER_SAMPLE,
            config=spec.config,
        )
        time_model = IterationTimeModel(PerformanceModel(device=V100, network=EDR_INFINIBAND))
        budget = int(0.9 * 16 * GB)  # usable fraction of a 16 GB V100
        epochs_sgd, epochs_kaisa = 90, 55
        samples_per_epoch = 1_281_167  # ImageNet-1k training set
        for label, frac, epochs in (
            ("SGD", None, epochs_sgd),
            ("KAISA COMM-OPT (frac=1)", 1.0, epochs_kaisa),
            ("KAISA HYBRID-OPT (frac=1/2)", 0.5, epochs_kaisa),
            ("KAISA MEM-OPT (frac=1/64)", 1.0 / 64, epochs_kaisa),
        ):
            batch = _paper_layout_batch(memory, budget, 64, frac)
            sharded_batch = memory.max_local_batch_size(budget, 64, frac)
            if batch == 0:
                rows.append(["ResNet-50", label, 0, None, None, "out of memory", sharded_batch])
                continue
            scaled = _rescale_compute(spec, batch)
            if frac is None:
                iter_time = time_model.baseline_iteration_time(scaled, 64)
            else:
                iter_time = time_model.kaisa_iteration_time(scaled, 64, frac)
            iterations = epochs * samples_per_epoch // (batch * 64)
            total_minutes = iterations * iter_time / 60.0
            rows.append(["ResNet-50", label, batch, batch * 64, round(total_minutes, 1), "fits", sharded_batch])

        # ---------------- BERT-Large phase 2 on 8 x 40 GB A100 ------------------
        spec = paper_workload_spec("bert_large", precision="fp16")
        memory = KFACMemoryModel(
            spec.layers,
            spec.param_count,
            optimizer="lamb",
            weight_dtype_bytes=2,
            activation_bytes_per_sample=BERT_ACT_PER_SAMPLE,
            config=spec.config,
        )
        time_model = IterationTimeModel(PerformanceModel(device=A100, network=DGX_A100_FABRIC))
        budget = int(0.9 * 40 * GB)
        lamb_iterations, kaisa_iterations = 1536, 800
        for label, frac, iterations in (
            ("Fused LAMB", None, lamb_iterations),
            ("KAISA HYBRID-OPT (frac=1/2)", 0.5, kaisa_iterations),
            ("KAISA COMM-OPT (frac=1)", 1.0, kaisa_iterations),
        ):
            batch = _paper_layout_batch(memory, budget, 8, frac)
            sharded_batch = memory.max_local_batch_size(budget, 8, frac)
            scaled = _rescale_compute(spec, max(batch, 1) * spec.grad_accumulation_steps)
            if frac is None:
                iter_time = time_model.baseline_iteration_time(scaled, 8)
            else:
                iter_time = time_model.kaisa_iteration_time(scaled, 8, frac)
            total_minutes = iterations * iter_time / 60.0
            rows.append(
                [
                    "BERT-Large ph2",
                    label,
                    batch,
                    batch * 8 * spec.grad_accumulation_steps,
                    round(total_minutes, 1),
                    "fits" if batch else "out of memory",
                    sharded_batch,
                ]
            )
        return rows

    rows = benchmark(compute_table)
    headers = [
        "App",
        "Optimizer / strategy",
        "max local batch",
        "global batch",
        "time to converge (min)",
        "memory",
        "max local batch, this tree's layout",
    ]
    print_section("Table 4 - Convergence under a fixed per-GPU memory budget (projected; the paper's layout, then this tree's)")
    print(format_table(headers, rows))
    record_memory_bench("table04", [dict(zip(headers, row)) for row in rows])
    paper = PAPER_RESULTS
    print(
        f"\nPaper: KAISA converges {paper['table4_resnet50']['time_reduction_pct']}% faster than SGD on ResNet-50 "
        f"and {paper['table4_bert']['time_reduction_pct']}% faster than LAMB on BERT-Large under the same budget."
    )

    resnet_rows = {row[1]: row for row in rows if row[0] == "ResNet-50"}
    bert_rows = {row[1]: row for row in rows if row[0].startswith("BERT")}
    # Shape checks: baseline fits the largest batch; KAISA strategies trade batch for eigen cache;
    # KAISA still converges in less total time than the baseline.
    assert resnet_rows["SGD"][2] >= resnet_rows["KAISA HYBRID-OPT (frac=1/2)"][2] >= resnet_rows["KAISA COMM-OPT (frac=1)"][2]
    assert resnet_rows["KAISA HYBRID-OPT (frac=1/2)"][4] < resnet_rows["SGD"][4]
    assert bert_rows["KAISA HYBRID-OPT (frac=1/2)"][4] < bert_rows["Fused LAMB"][4]
    # Storing each factor once never costs batch: this tree fits at least the paper layout's.
    assert all(row[6] >= row[2] for row in rows)
    assert resnet_rows["KAISA MEM-OPT (frac=1/64)"][6] > resnet_rows["KAISA MEM-OPT (frac=1/64)"][2]


def test_table04_measured_column(benchmark):
    """What a per-GPU budget has to fit is the busiest rank: live, at world 2 and 4, beside the paper layout."""
    measured_memory = benchmark.pedantic(measured_memory_rows, iterations=1, rounds=1)
    print_section("Table 4 - measured K-FAC state of the busiest rank (threaded ranks, refresh every step)")
    print(measured_memory_table(measured_memory, "max"))
    for row in measured_memory:
        assert max(row["measured_bytes_per_rank"]) < row["paper_layout_max_bytes"]
