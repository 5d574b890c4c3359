"""Structured factor representations: packed payload sizes and eigen times.

Quantifies what the FactorRepr refactor buys at the paper's layer widths:

* **Allreduce payloads** — every factor travels in the form it is stored in.
  A diagonal factor of dimension ``F`` costs exactly ``F`` elements (O(F)),
  never the square ``F²``: the BERT-Large vocabulary table's A factor drops
  from ~3.7 GB to 122 KB per allreduce (a model figure: K-FAC leaves
  ``Embedding`` to the optimizer, so no handler holds one).  A dense factor is symmetric and travels
  once, as the ``F(F+1)/2`` elements of its packed triangle.
* **Eigen solves** — the diagonal "decomposition" is a clamped copy (O(F))
  against the dense ``O(F³)`` ``eigh``; a factor of several blocks decomposes
  block by block through the batched kernel seam, each block stored as its
  packed triangle.  Measured at BERT widths
  (hidden 1024, vocab 30522) and ResNet widths (channels 64-512).
* **Memory** — the per-rank factor storage charged by the Table 4/5 memory
  model shrinks to the packed sizes (beside the paper's all-square layout).

Results go to ``BENCH_factor_repr.json`` via the shared envelope writer.
"""

import time

import numpy as np
from pathlib import Path

from repro.experiments import format_table, write_bench_json
from repro.kfac import FactorRepr, KernelBackend, KFACConfig, KFACWorkloadSpec, pack_triangle
from repro.kfac.strategy import LayerShapeInfo
from repro.memory import paper_factor_bytes

from conftest import print_section

OUTPUT = Path(__file__).with_name("BENCH_factor_repr.json")
ITEMSIZE = 4  # fp32
ROUNDS = 5

# Layers at the paper's widths: (name, repr).
STRUCTURED_LAYERS = [
    ("bert_large.attention.A", FactorRepr.dense(1025)),
    ("resnet50.layer4.conv2.A", FactorRepr.dense(4608)),
    ("bert_large.token_embedding.A", FactorRepr.diagonal(30522)),
    ("bert_large.position_embedding.A", FactorRepr.diagonal(512)),
    ("bert_large.layernorm.G", FactorRepr.diagonal(1024)),
    ("resnet50.bn1.G", FactorRepr.diagonal(64)),
    ("resnet50.layer4.bn.G", FactorRepr.diagonal(512)),
    ("embedding.blocked.G", FactorRepr(1024, 64)),
]


def min_time(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


_RESULTS = {}


def test_packed_allreduce_payloads_are_o_f(benchmark):
    """Diagonal factors ship exactly F elements, dense ones their triangle; the square would be F^2."""

    def sweep():
        rows = []
        for name, repr_ in STRUCTURED_LAYERS:
            packed_bytes = repr_.packed_numel * ITEMSIZE
            dense_bytes = repr_.dim * repr_.dim * ITEMSIZE
            rows.append(
                {
                    "layer": name,
                    "repr": repr_.describe(),
                    "dim": repr_.dim,
                    "packed_bytes": packed_bytes,
                    "dense_bytes": dense_bytes,
                    "reduction": dense_bytes / packed_bytes,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print_section("Factor representations - packed vs square allreduce payloads (fp32)")
    print(
        format_table(
            ["layer", "repr", "packed (KB)", "square (KB)", "reduction"],
            [
                [r["layer"], r["repr"], round(r["packed_bytes"] / 1024, 1),
                 round(r["dense_bytes"] / 1024, 1), round(r["reduction"], 1)]
                for r in rows
            ],
        )
    )
    for row in rows:
        if row["repr"].startswith("diagonal"):
            # The O(F) acceptance criterion, byte-exact.
            assert row["packed_bytes"] == row["dim"] * ITEMSIZE, row
        if row["repr"].startswith("dense"):
            # A symmetric factor travels once: n(n+1)/2 elements.
            assert row["packed_bytes"] == row["dim"] * (row["dim"] + 1) // 2 * ITEMSIZE, row
        assert row["packed_bytes"] <= row["dense_bytes"], row
    vocab = next(r for r in rows if "token_embedding" in r["layer"])
    assert vocab["reduction"] == vocab["dim"]  # F^2 / F
    _RESULTS["allreduce_payloads"] = rows


def test_structured_eigen_times_at_paper_widths(benchmark):
    """Diagonal eigen is a clamped copy; dense eigh is cubic and loses badly
    already at BERT's hidden width (1024).  At vocabulary width (30522) the
    dense solve is infeasible, so only the structured time is measured."""
    backend = KernelBackend()
    rng = np.random.default_rng(0)

    def sweep():
        rows = []
        for dim, dense_feasible in [(64, True), (512, True), (1024, True), (30522, False)]:
            vector = rng.standard_normal(dim).astype(np.float32) ** 2
            repr_ = FactorRepr.diagonal(dim)
            diag_time = min_time(lambda: backend.eigen_task([vector], repr_)()[0])
            dense_time = None
            if dense_feasible:
                dense = np.diag(vector)
                dense_time = min_time(lambda: backend.symmetric_eigen(dense), rounds=3)
            rows.append(
                {
                    "dim": dim,
                    "diagonal_s": diag_time,
                    "dense_s": dense_time,
                    "speedup": (dense_time / diag_time) if dense_time else None,
                }
            )
        block_repr = FactorRepr(1024, 64)
        blocks = rng.standard_normal((16, 64, 64)).astype(np.float32)
        blocks = np.einsum("bij,bkj->bik", blocks, blocks) / 64
        packed = np.concatenate([pack_triangle(block) for block in blocks])
        block_time = min_time(lambda: backend.eigen_task([packed], block_repr)()[0])
        dense_block = block_repr.to_dense(packed)
        dense_block_time = min_time(lambda: backend.symmetric_eigen(dense_block), rounds=3)
        return rows, {"repr": block_repr.describe(), "block_s": block_time, "dense_s": dense_block_time}

    rows, block = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print_section("Factor representations - eigen times, diagonal vs dense eigh (min of %d)" % ROUNDS)
    print(
        format_table(
            ["dim", "diagonal (us)", "dense eigh (ms)", "speedup"],
            [
                [r["dim"], round(r["diagonal_s"] * 1e6, 1),
                 round(r["dense_s"] * 1e3, 2) if r["dense_s"] else "infeasible",
                 round(r["speedup"], 1) if r["speedup"] else "-"]
                for r in rows
            ],
        )
    )
    print(
        format_table(
            ["repr", "block eigen (ms)", "dense eigh (ms)"],
            [[block["repr"], round(block["block_s"] * 1e3, 2), round(block["dense_s"] * 1e3, 2)]],
        )
    )
    for row in rows:
        if row["speedup"] is not None and row["dim"] >= 512:
            assert row["speedup"] > 10.0, row
    assert block["block_s"] < block["dense_s"], block
    _RESULTS["eigen_times"] = {"diagonal": rows, "block": block}


def test_memory_model_charges_packed_factor_bytes(benchmark):
    """Tables 4-5 memory accounting reflects the packed representations."""
    vocab, hidden = 30522, 1024

    def build(structured):
        a_repr = FactorRepr.diagonal(vocab) if structured else FactorRepr.dense(vocab)
        layers = [
            LayerShapeInfo("token_embedding", a_repr, FactorRepr.dense(hidden)),
            LayerShapeInfo.dense("intermediate", hidden, 4 * hidden),
        ]
        return KFACWorkloadSpec(
            "bert_large", layers, param_count=vocab * hidden + 4 * hidden * hidden, local_batch_size=0,
            baseline_compute_time=0.0, config=KFACConfig(),
        )  # fmt: skip

    def measure():
        packed = build(structured=True).factor_bytes
        dense = build(structured=False).factor_bytes
        paper = paper_factor_bytes(build(structured=False))
        return {
            "packed_bytes": packed,
            "dense_bytes": dense,
            "paper_layout_bytes": paper,
            "saved_mb": (dense - packed) / 1024 / 1024,
        }

    result = benchmark.pedantic(measure, iterations=1, rounds=1)
    print_section("Factor representations - memory-model factor bytes (structured vs all-dense vs the paper's squares)")
    print(
        format_table(
            ["variant", "factor bytes (MB)"],
            [
                ["paper layout: every factor a full square", round(result["paper_layout_bytes"] / 1024 / 1024, 1)],
                ["all dense (packed triangles)", round(result["dense_bytes"] / 1024 / 1024, 1)],
                ["diagonal vocabulary A", round(result["packed_bytes"] / 1024 / 1024, 1)],
            ],
        )
    )
    # The vocabulary factor collapses from its triangle, vocab(vocab+1)/2 elements, to vocab.
    expected_saving = (vocab * (vocab + 1) // 2 - vocab) * ITEMSIZE
    assert result["dense_bytes"] - result["packed_bytes"] == expected_saving, result
    assert result["paper_layout_bytes"] == (vocab**2 + 2 * hidden**2 + (4 * hidden) ** 2) * ITEMSIZE
    _RESULTS["memory_model"] = result

    write_bench_json(OUTPUT, "factor_repr", dict(_RESULTS))
