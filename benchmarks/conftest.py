"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure from the paper's
evaluation section (see DESIGN.md section 3 for the experiment index) and
prints a paper-vs-measured comparison.  Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the printed tables; without it the numbers are still
computed and the benchmark timings recorded.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    build_workload,
    format_table,
    measured_memory_report,
    paper_workload_spec,
    write_bench_json,
)
from repro.kfac import KFAC
from repro.memory import KFACMemoryModel


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


# ------------------------------------------------------------ memory layouts
# The three memory scripts (Table 4, Table 5, Figure 6) print two layouts side
# by side: the paper's, where every rank keeps every running factor as a full
# square, and this tree's, where a factor lives only on the rank that
# decomposes it, a dense one as its packed triangle (KFAC.holds_factor;
# KFACMemoryModel.breakdown).  They share one measured column and one
# BENCH_memory.json.
BENCH_MEMORY_JSON = Path(__file__).with_name("BENCH_memory.json")
MEASURED_WORKLOADS = ("bert", "cifar_resnet")
MEASURED_WORLDS = (2, 4)


def paper_layout_overhead(memory, world_size: int, grad_worker_frac: float, rank: str = "max") -> int:
    """K-FAC bytes per rank in the paper's layout: all factors, square, everywhere + this rank's eigen state."""
    eigen = memory.eigen_bytes_per_rank(world_size, grad_worker_frac)
    return memory.paper_factor_bytes() + int(getattr(eigen, rank)())


def square_storage_overhead(memory, world_size: int, grad_worker_frac: float) -> int:
    """Busiest rank's K-FAC bytes under this tree's placement if every held dense factor were a full square.

    The layout between "stored once across the ranks" and "stored once as a
    triangle": what the busiest-rank figures read before packed storage.
    """
    plan = memory.plan(world_size, grad_worker_frac)
    itemsize = np.dtype(plan.policy.precision.factor_dtype).itemsize
    per_rank = np.zeros(world_size, dtype=np.int64)
    for (name, which), holders in plan.factor_holders.items():
        repr_ = plan.groups[name].layer.factor_repr(which)
        per_rank[list(holders)] += itemsize * (repr_.dim**2 if repr_.is_dense else repr_.packed_numel)
    return int((per_rank + plan.eigen_bytes_per_rank()).max())


def busiest_rank_at_paper_scale(world_size: int = 64):
    """BERT-Large and ResNet-50 (fp32) on ``world_size`` ranks at MEM-OPT: the busiest rank's modeled K-FAC state.

    One row per model with the paper's layout, this tree's placement with
    square factors and this tree's layout (placement + packed triangles), in
    MB; printed by the Table 5 and Figure 6 scripts and recorded in
    ``BENCH_memory.json``.
    """
    MB = 1024**2
    rows = []
    for name in ("bert_large", "resnet50"):
        spec = paper_workload_spec(name, precision="fp32")
        memory = KFACMemoryModel(spec.layers, spec.param_count)
        frac = 1.0 / world_size
        rows.append(
            {
                "model": name,
                "world": world_size,
                "paper layout (MB)": round(paper_layout_overhead(memory, world_size, frac, "max") / MB, 1),
                "stored once, square (MB)": round(square_storage_overhead(memory, world_size, frac) / MB, 1),
                "stored once, packed triangle (MB)": round(memory.overhead_bytes(world_size, frac, rank="max") / MB, 1),
            }
        )
    record_memory_bench(f"busiest_rank_w{world_size}", rows)
    return rows


def busiest_rank_table(rows) -> str:
    headers = list(rows[0])
    return format_table(headers, [[row[header] for header in headers] for row in rows])


def record_memory_bench(section: str, payload) -> None:
    """Replace one section of the shared ``BENCH_memory.json`` (schema envelope via ``write_bench_json``)."""
    data = json.loads(BENCH_MEMORY_JSON.read_text())["data"] if BENCH_MEMORY_JSON.exists() else {}
    data[section] = payload
    write_bench_json(BENCH_MEMORY_JSON, "memory", data)


@functools.lru_cache(maxsize=None)
def measured_memory_rows():
    """Live per-rank K-FAC state at world 2 and 4 beside both modeled layouts (measured once per session).

    One row per workload x world x strategy from :func:`measured_memory_report`
    (a real threaded run, factor and eigen refresh every step): the bytes each
    rank's ``KFAC.memory_usage()`` reports, which must equal this tree's model
    rank by rank, and the paper-layout figure for the same registered layers.
    Each memory script passes this to ``benchmark.pedantic`` (``--benchmark-only``
    skips a test that benchmarks nothing); the scripts after the first read the cache.
    """
    rows = []
    for workload_name in MEASURED_WORKLOADS:
        workload = build_workload(workload_name, seed=0)
        # The shapes of everything K-FAC registers (norm layers included), as the model's input.
        registered = KFAC(workload.model, skip_modules=workload.kfac_skip_modules).layers.values()
        model = KFACMemoryModel([layer.shape_info() for layer in registered], param_count=0)
        for world in MEASURED_WORLDS:
            for label, frac in (("MEM-OPT", 1.0 / world), ("HYBRID-OPT", 0.5), ("COMM-OPT", 1.0)):
                if label == "HYBRID-OPT" and world == 2:
                    continue  # at world 2 a fraction of 1/2 *is* MEM-OPT
                report = measured_memory_report(workload_name, world_size=world, grad_worker_frac=frac, steps=1)
                measured = [entry["measured"]["total"] for entry in report["per_rank"]]
                modeled = (model.factor_bytes_per_rank(world, frac) + model.eigen_bytes_per_rank(world, frac)).tolist()
                assert measured == modeled, f"{workload_name} world {world} {label}: live {measured} != model {modeled}"
                rows.append(
                    {
                        "workload": workload_name,
                        "world": world,
                        "strategy": label,
                        "grad_worker_frac": frac,
                        "measured_bytes_per_rank": measured,
                        "measured_factor_bytes_per_rank": [e["measured"]["factors"] for e in report["per_rank"]],
                        "paper_layout_max_bytes": paper_layout_overhead(model, world, frac, "max"),
                        "paper_layout_mean_bytes": paper_layout_overhead(model, world, frac, "mean"),
                    }
                )
    record_memory_bench("measured", rows)
    return rows


def measured_memory_table(rows, rank: str = "max") -> str:
    """The measured column as a table: live bytes of the ``rank`` (``max`` / ``mean``) rank vs the paper layout."""
    KiB = 1024.0
    table = []
    for row in rows:
        measured = row["measured_bytes_per_rank"]
        live = max(measured) if rank == "max" else sum(measured) / len(measured)
        paper = row[f"paper_layout_{rank}_bytes"]
        table.append(
            [
                row["workload"],
                row["world"],
                row["strategy"],
                round(paper / KiB, 1),
                round(live / KiB, 1),
                round(100.0 * (live - paper) / paper, 1),
                round(sum(row["measured_factor_bytes_per_rank"]) / KiB, 1),
            ]
        )
    return format_table(
        [
            "workload",
            "world",
            "strategy",
            f"paper layout, {rank} rank (KiB)",
            f"measured = this tree's model, {rank} rank (KiB)",
            "delta %",
            "factors over all ranks (KiB)",
        ],
        table,
    )
