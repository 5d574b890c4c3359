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

import pytest

from repro.experiments import build_workload, format_table, measured_memory_report, write_bench_json
from repro.kfac import KFAC
from repro.memory import KFACMemoryModel


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


# ------------------------------------------------------------ memory layouts
# The three memory scripts (Table 4, Table 5, Figure 6) print two layouts side
# by side: the paper's, where every rank keeps every running factor, and this
# tree's, where a factor lives only on the rank that decomposes it
# (KFAC.holds_factor; KFACMemoryModel.breakdown).  They share one measured
# column and one BENCH_memory.json.
BENCH_MEMORY_JSON = Path(__file__).with_name("BENCH_memory.json")
MEASURED_WORKLOADS = ("bert", "cifar_resnet")
MEASURED_WORLDS = (2, 4)


def paper_layout_overhead(memory, world_size: int, grad_worker_frac: float, rank: str = "max") -> int:
    """K-FAC bytes per rank in the paper's layout: all factors everywhere + this rank's eigen state."""
    eigen = memory.eigen_bytes_per_rank(world_size, grad_worker_frac)
    return memory.factor_bytes() + int(getattr(eigen, rank)())


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
