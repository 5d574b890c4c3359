"""One workload in one process: build, warm up, time, (optionally) trace, check.

Started by ``run.py`` with a cleaned environment; prints one JSON object (the
detailed result: every metric with its raw value beside the normalised one,
the correctness checks and the host stamp) as the last line of stdout.

Only the public training surface is driven: ``build_workload`` /
``make_optimizer``, ``KFACConfig`` + ``KFAC.from_config``,
``Trainer.train_step``, ``run_spmd`` and the ``Communicator`` contract (through
:class:`comm_probe.CommProbe`).  Ranks are threads of this process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from calibrate import NOMINAL_MS, ReferenceKernel, median, speed_factor
from catalogue import BLOCK_STEPS, WORKLOADS, Workload
from comm_probe import OPS, CommCounters, CommProbe

from repro import KFAC, nn
from repro.distributed import SingleProcessCommunicator, run_spmd
from repro.experiments import build_workload, make_optimizer
from repro.kfac import make_kernel_backend
from repro.nn.functional import col2im, im2col
from repro.training import Trainer

MB = float(2**20)
#: Steps timed as part of set-up: the first (every lazy initialisation) and the first to reuse it.
SETUP_STEPS = 2
#: Shortest warm-up; the first-order baseline, which has no cadence, gets exactly this.
MIN_WARMUP_STEPS = 4
#: Steps of the separate allocation-peak pass.
ALLOC_PASS_STEPS = 5


# ------------------------------------------------------------------ the program under test
def endless(loader) -> Iterator:
    """Batches for ever: the loader reshuffles at every epoch boundary."""
    while True:
        yield from loader


def shard(batch, rank: int, world: int):
    """Rank ``rank``'s share ``batch[rank::world]`` of a global batch (tuple or dict of arrays)."""
    if world == 1:
        return batch
    if isinstance(batch, dict):
        return {key: value[rank::world] for key, value in batch.items()}
    return tuple(value[rank::world] for value in batch)


class Side:
    """One trainer -- KAISA or the first-order baseline -- with its data stream and comm probe."""

    def __init__(self, workload: Workload, seed: int, comm, kfac: bool) -> None:
        self.kind = "kaisa" if kfac else "baseline"
        self.probe = CommProbe(comm)
        built = build_workload(workload.builder, seed=seed)
        config = built.config
        self.model = built.model
        self.forward_loss = built.forward_loss
        self.batch_size = config.batch_size
        self.batches = endless(built.train_loader)
        self.optimizer = make_optimizer(
            config.baseline_optimizer,
            self.model.parameters(),
            lr=config.kfac_lr if kfac else config.baseline_lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        self.preconditioner = None
        self.kfac_config = config.kfac_config(**workload.kfac_overrides)
        if kfac:
            self.preconditioner = KFAC.from_config(
                self.model, self.kfac_config, comm=self.probe, skip_modules=built.kfac_skip_modules
            )
        self.trainer = Trainer(
            self.model, self.optimizer, self.forward_loss, preconditioner=self.preconditioner, comm=self.probe
        )
        self.steps_done = 0

    def next_batch(self):
        return shard(next(self.batches), self.probe.rank, self.probe.world_size)

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.model.parameters()])


class SpanRecorder:
    """In-memory spans (name, start, end, parent, step id, rank) and counts; written out once."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.spans: List[Optional[tuple]] = []
        self.counts: List[tuple] = []
        self.stack: List[int] = []
        self.step_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.step_id, self.rank)

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.step_id, self.rank))


def untraced_step(side: Side, recorder=None) -> float:
    """The measured path: one ``Trainer.train_step`` on the next batch."""
    loss = side.trainer.train_step(side.next_batch())
    side.steps_done += 1
    return loss


def traced_step(side: Side, recorder: SpanRecorder) -> float:
    """Benchmark-owned step in the paper's Listing 1 order, a span around each call into a layer."""
    recorder.step_id = f"{side.kind}:{side.steps_done}"
    probe, counters = side.probe, side.probe.counters
    with recorder.span("step"):
        with recorder.span("data.next_batch"):
            batch = side.next_batch()
        side.model.train()
        side.optimizer.zero_grad()
        with recorder.span("nn.forward"):
            loss = side.forward_loss(side.model, batch)
            value = float(loss.item())
        with recorder.span("tensor.backward"):
            loss.backward()
        blocked = counters.blocked_s
        with recorder.span("distributed.grad_sync"):
            if probe.world_size > 1:
                params = [p for p in side.model.parameters() if p.grad is not None]
                flat = np.concatenate([p.grad.ravel() for p in params])
                reduced = probe.allreduce_average(flat)
                offset = 0
                for param in params:
                    size = param.grad.size
                    param.grad = reduced[offset : offset + size].reshape(param.grad.shape).astype(np.float32)
                    offset += size
        recorder.count("distributed.grad_sync_blocked_s", counters.blocked_s - blocked)
        if side.preconditioner is not None:
            blocked = counters.blocked_s
            with recorder.span("kfac.step"):
                side.preconditioner.step(lr=side.optimizer.param_groups[0]["lr"])
            recorder.count("distributed.kfac_blocked_s", counters.blocked_s - blocked)
        with recorder.span("optim.step"):
            side.optimizer.step()
    side.steps_done += 1
    return value


def calibrate(comm, kernel: ReferenceKernel, repeats: int) -> List[float]:
    """Reference-kernel times taken by rank 0 while every other rank waits.

    Host speed is a property of the box, not of a rank, and two threads running
    the kernel at once mostly measure how they interleave on the interpreter
    lock; so one rank measures, alone, between two barriers.
    """
    comm.barrier()
    times = kernel.sample(repeats) if comm.rank == 0 else []
    comm.barrier()
    return times


def run_block(side: Side, steps: int, comm, kernel: ReferenceKernel, step_fn: Callable, recorder=None) -> dict:
    """``steps`` closed-loop steps of one side, the reference kernel after each.

    Ranks leave every step together (the barrier in :func:`calibrate`), so a
    rank's step time never includes waiting out the previous step's skew.
    """
    block = {"side": side.kind, "first_step": side.steps_done, "raw_ms": [], "calib_ms": [], "loss": []}
    for _ in range(steps):
        start = time.perf_counter()
        loss = step_fn(side, recorder)
        block["raw_ms"].append((time.perf_counter() - start) * 1e3)
        block["loss"].append(loss)
        block["calib_ms"] += calibrate(comm, kernel, 1)
    return block


def run_window(sides: Sequence[Side], steps: int, comm, kernel, step_fn, recorder=None) -> List[dict]:
    """Alternating blocks of every side (order flipped each round) so all see the same host state."""
    blocks = []
    for round_index in range(steps // BLOCK_STEPS):
        ordered = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        for side in ordered:
            comm.barrier()
            if comm.rank == 0:
                gc.collect()
                gc.disable()
            comm.barrier()
            blocks.append(run_block(side, BLOCK_STEPS, comm, kernel, step_fn, recorder))
            if comm.rank == 0:
                gc.enable()
    return blocks


def build_side(workload: Workload, seed: int, comm, kfac: bool) -> Side:
    """Build one side on every rank, one rank at a time.

    Ranks are threads here, and two threads building at once convoy on the
    interpreter lock (the same build takes 0.2 s or 1 s depending on how they
    interleave).  Real ranks are processes that do not interfere, which taking
    turns reproduces; the cost reported is the sum over ranks.
    """
    side = None
    for turn in range(comm.world_size):
        if comm.rank == turn:
            side = Side(workload, seed, comm, kfac)
        comm.barrier()
    return side


def set_up(workload: Workload, seed: int, comm, kernel: ReferenceKernel, step_fn, recorder=None) -> dict:
    """Build the KAISA side and take its first steps: the benchmark's set-up time.

    Build + ``KFAC.from_config`` + the first ``SETUP_STEPS`` steps (the first
    factor update, the first eigen refresh and every lazy initialisation, then
    the first step that reuses them).  Each part is timed from barrier to
    barrier with the reference kernel after it, exactly like a timed step, so
    set-up is normalised by the host speed seen *during* set-up.
    """
    start = time.perf_counter()
    side = build_side(workload, seed, comm, kfac=True)
    raw_s = time.perf_counter() - start
    calib = calibrate(comm, kernel, 1)
    for _ in range(SETUP_STEPS):
        start = time.perf_counter()
        step_fn(side, recorder)
        comm.barrier()
        raw_s += time.perf_counter() - start
        calib += calibrate(comm, kernel, 1)
    return {"side": side, "raw_s": raw_s, "calib_ms": calib}


def warm_up(side: Side, step_fn, recorder=None) -> Side:
    """Untimed steps until a KAISA side is through its first two eigen refreshes (steps 0 and inv_update_freq)."""
    target = MIN_WARMUP_STEPS
    if side.preconditioner is not None:
        target = max(target, side.kfac_config.inv_update_freq + 1)
    while side.steps_done < target:
        step_fn(side, recorder)
    return side


def rank_program(workload: Workload, args, comm) -> dict:
    """Everything one rank does; returns its raw records for :func:`aggregate`."""
    kernel = ReferenceKernel()
    out: dict = {"rank": comm.rank, "setup": []}
    for _ in range(args.setup_repeats):
        kaisa = None  # drop the previous repetition before building the next
        gc.collect()
        rep = set_up(workload, args.seed, comm, kernel, untraced_step)
        kaisa = rep.pop("side")
        out["setup"].append(rep)
    warm_up(kaisa, untraced_step)
    baseline = warm_up(build_side(workload, args.seed, comm, kfac=False), untraced_step)

    out["warmup"] = kaisa.steps_done
    before = kaisa.probe.counters.snapshot()
    out["blocks"] = run_window([kaisa, baseline], args.steps, comm, kernel, untraced_step)
    out["comm"] = CommCounters.delta(kaisa.probe.counters.snapshot(), before)
    out["memory"] = dict(kaisa.preconditioner.memory_usage())
    out["layers_registered"] = len(kaisa.preconditioner.layers)
    out["kaisa_params"] = kaisa.flat_parameters()
    out["baseline_params"] = baseline.flat_parameters()
    out["batch_size"] = kaisa.batch_size
    out["cadence"] = {
        "factor_update_freq": kaisa.kfac_config.factor_update_freq,
        "inv_update_freq": kaisa.kfac_config.inv_update_freq,
        "kernel_backend": kaisa.preconditioner.kernel_backend,
    }
    comm.barrier()
    if comm.rank == 0:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        del kaisa, baseline
        out["traced"] = traced_pass(workload, args, comm, kernel)
    return out


# ------------------------------------------------------------------------------ traced run
def traced_pass(workload: Workload, args, comm, kernel: ReferenceKernel) -> dict:
    """Fresh sides from the same seed, stepped by the benchmark's own loop with spans on."""
    recorder = SpanRecorder(comm.rank)
    steps = max(1, round(args.steps / 3 / BLOCK_STEPS)) * BLOCK_STEPS
    kaisa = warm_up(build_side(workload, args.seed, comm, kfac=True), traced_step, recorder)
    baseline = warm_up(build_side(workload, args.seed, comm, kfac=False), traced_step, recorder)
    recorder.spans.clear()
    recorder.counts.clear()
    before = kaisa.probe.counters.snapshot()
    out: dict = {"steps": steps}
    out["blocks"] = run_window([kaisa, baseline], steps, comm, kernel, traced_step, recorder)
    out["comm"] = CommCounters.delta(kaisa.probe.counters.snapshot(), before)
    out["memory"] = dict(kaisa.preconditioner.memory_usage())

    # Allocation peak over a separate short pass that starts on an eigen-refresh
    # step: tracemalloc slows every allocation, so it must not run while
    # anything is being timed.
    while kaisa.steps_done % kaisa.kfac_config.inv_update_freq:
        untraced_step(kaisa)
    comm.barrier()
    if comm.rank == 0:
        tracemalloc.start()
    comm.barrier()
    for _ in range(ALLOC_PASS_STEPS):
        untraced_step(kaisa)
    comm.barrier()
    if comm.rank == 0:
        out["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
        tracemalloc.stop()
        out["probes"] = micro_probes(kaisa, kernel)
    comm.barrier()
    out["spans"] = recorder.spans
    out["counts"] = recorder.counts
    return out


def timed_probe(fn: Callable[[], object], repeats: int, kernel: ReferenceKernel) -> dict:
    """Median of ``repeats`` calls of ``fn``, the reference kernel after each call as in a timed block."""
    raw, calib = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        raw.append((time.perf_counter() - start) * 1e3)
        calib.append(kernel())
    factor = speed_factor(calib)
    return {"raw_ms": median(raw), "ms": median(raw) / factor, "speed_factor": factor}


def largest_conv_call(side: Side):
    """(input shape, kernel, stride, padding) of the conv call that unfolds the most columns."""
    calls = []

    def capture(module, inputs, output) -> None:
        n, c, h, w = inputs[0].shape
        out_h, out_w = module.output_shape(h, w)
        kh, kw = module.kernel_size
        calls.append((n * c * kh * kw * out_h * out_w, (n, c, h, w), module.kernel_size, module.stride, module.padding))

    handles = [m.register_forward_hook(capture) for m in side.model.modules() if isinstance(m, nn.Conv2d)]
    if not handles:
        return None
    try:
        side.forward_loss(side.model, side.next_batch())
    finally:
        for handle in handles:
            handle.remove()
    return max(calls, key=lambda call: call[0])[1:]


def micro_probes(side: Side, kernel: ReferenceKernel) -> dict:
    """Layer calls timed in isolation: im2col / col2im on the largest conv shape, the eigen kernel."""
    rng = np.random.default_rng(0)
    probes = {"nn.im2col": None, "nn.col2im": None}
    conv = largest_conv_call(side)
    if conv is not None:
        shape, kernel_size, stride, padding = conv
        images = rng.standard_normal(shape).astype(np.float32)
        cols, _, _ = im2col(images, kernel_size, stride, padding)
        probes["nn.im2col"] = timed_probe(lambda: im2col(images, kernel_size, stride, padding), 30, kernel)
        probes["nn.col2im"] = timed_probe(lambda: col2im(cols, shape, kernel_size, stride, padding), 30, kernel)
        probes["conv_shape"] = {"input": list(shape), "kernel": list(kernel_size), "stride": stride, "padding": padding}

    backend = make_kernel_backend(side.preconditioner.kernel_backend)
    factors = []
    for layer in side.preconditioner.layers.values():
        for dim in (layer.a_dim, layer.g_dim):
            sample = rng.standard_normal((2 * dim, dim)).astype(np.float32)
            factors.append(sample.T @ sample / np.float32(2 * dim))

    def eigen_all() -> None:
        for factor in factors:
            backend.symmetric_eigen(factor)

    probes["kfac.eigen_kernel"] = timed_probe(eigen_all, 3, kernel)
    return probes


# ------------------------------------------------------------------------------ aggregation
def step_class(index: int, cadence: dict) -> str:
    """Deterministic cadence class of a KAISA side's ``index``-th step."""
    if index % cadence["inv_update_freq"] == 0:
        return "refresh"
    if index % cadence["factor_update_freq"] == 0:
        return "factor"
    return "plain"


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def merge_blocks(per_rank_blocks: Sequence[List[dict]]) -> List[dict]:
    """Combine the ranks' records of each block: the slowest rank sets the step."""
    merged = []
    for rank_blocks in zip(*per_rank_blocks):
        first = rank_blocks[0]
        calib = [v for block in rank_blocks for v in block["calib_ms"]]
        per_rank_raw = np.array([block["raw_ms"] for block in rank_blocks])
        merged.append(
            {
                "side": first["side"],
                "first_step": first["first_step"],
                "speed_factor": speed_factor(calib),
                "calib_ms": calib,
                "raw_ms": per_rank_raw.max(axis=0).tolist(),
                "raw_skew_ms": (per_rank_raw.max(axis=0) - per_rank_raw.min(axis=0)).tolist(),
                "loss": np.mean([block["loss"] for block in rank_blocks], axis=0).tolist(),
            }
        )
    return merged


def side_series(blocks: Sequence[dict], kind: str) -> dict:
    """One side's per-step series over its blocks in step order; ``ms`` is at nominal host speed."""
    own = [block for block in blocks if block["side"] == kind]
    factor = np.array([block["speed_factor"] for block in own for _ in block["raw_ms"]])
    raw = np.array([v for block in own for v in block["raw_ms"]])
    skew = np.array([v for block in own for v in block["raw_skew_ms"]])
    return {
        "index": [block["first_step"] + i for block in own for i in range(len(block["raw_ms"]))],
        "raw_ms": raw,
        "ms": raw / factor,
        "raw_skew_ms": skew,
        "skew_ms": skew / factor,
        "loss": np.array([v for block in own for v in block["loss"]]),
    }


def busiest_rank_comm(comms: Sequence[dict], steps: int) -> dict:
    """Per-step calls and bytes of the rank that posted the most bytes (lowest rank on a tie)."""
    busiest = max(comms, key=lambda c: sum(c["nbytes"].values()))
    out = {}
    for op in OPS:
        out[f"{op}_calls_per_step"] = busiest["calls"][op] / steps
        out[f"{op}_bytes_per_step"] = busiest["nbytes"][op] / steps
    out["calls_per_step"] = sum(busiest["calls"].values()) / steps
    out["bytes_per_step"] = sum(busiest["nbytes"].values()) / steps
    return out


def entry(value: float, raw: Optional[float] = None) -> dict:
    """A metric value; timings carry the un-normalised measurement beside it."""
    out = {"value": float(value)}
    if raw is not None:
        out["raw"] = float(raw)
    return out


def aggregate(workload: Workload, args, ranks: Sequence[dict]) -> dict:
    """Turn the ranks' raw records into named metrics and correctness checks."""
    checks: List[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    steps = args.steps
    batch = ranks[0]["batch_size"]
    cadence = ranks[0]["cadence"]
    blocks = merge_blocks([r["blocks"] for r in ranks])
    kaisa, base = side_series(blocks, "kaisa"), side_series(blocks, "baseline")
    refresh = [i for i, index in enumerate(kaisa["index"]) if step_class(index, cadence) == "refresh"]

    # Set-up repetitions follow each other within seconds, so they share one
    # speed factor from all their reference-kernel runs.
    setup_factor = speed_factor([v for r in ranks for rep in r["setup"] for v in rep["calib_ms"]])
    setup_raws = [max(rep["raw_s"] for rep in reps) for reps in zip(*[r["setup"] for r in ranks])]
    setups = [raw_s / setup_factor for raw_s in setup_raws]

    loss = kaisa["loss"]
    nonfinite = int(np.sum(~np.isfinite(loss)) + np.sum(~np.isfinite(base["loss"])))
    window = min(BLOCK_STEPS, len(loss))
    moving = np.convolve(loss, np.ones(window) / window, mode="valid")
    below = np.nonzero(moving < workload.loss_target)[0]
    steps_to_loss = int(below[0]) + window if below.size else steps
    final_loss = float(loss[-window:].mean())
    # First block against last block; halves of the window when it is a single block.
    edge = min(BLOCK_STEPS, len(loss) // 2)
    first_loss, last_loss = float(loss[:edge].mean()), float(loss[-edge:].mean())
    check("loss_decreased", math.isfinite(last_loss) and last_loss < first_loss, f"{first_loss:.4f} -> {last_loss:.4f}")
    if len(ranks) > 1:
        for key in ("kaisa_params", "baseline_params"):
            same = all(np.array_equal(ranks[0][key], r[key]) for r in ranks[1:])
            check(f"{key}_identical_across_ranks", same)

    def throughput(series: dict, key: str) -> float:
        return batch * steps / (series[key].sum() / 1e3)

    state_mb = max(r["memory"]["total"] for r in ranks) / MB
    comm = busiest_rank_comm([r["comm"] for r in ranks], steps)
    end_to_end = {
        "setup_s": entry(median(setups), median(setup_raws)),
        "samples_per_s": entry(throughput(kaisa, "ms"), throughput(kaisa, "raw_ms")),
        "baseline_samples_per_s": entry(throughput(base, "ms"), throughput(base, "raw_ms")),
        "step_ms_p50": entry(median(kaisa["ms"]), median(kaisa["raw_ms"])),
        "refresh_step_ms_p50": entry(median(kaisa["ms"][refresh]), median(kaisa["raw_ms"][refresh])),
        "kfac_state_mb_max_rank": entry(state_mb),
        "peak_rss_mb": entry(ranks[0]["peak_rss_mb"]),
        "steps_to_loss": entry(steps_to_loss),
        "time_to_loss_s": entry(kaisa["ms"][:steps_to_loss].sum() / 1e3, kaisa["raw_ms"][:steps_to_loss].sum() / 1e3),
        "final_loss": entry(final_loss),
        "comm_bytes_per_step": entry(comm["bytes_per_step"]),
        "comm_calls_per_step": entry(comm["calls_per_step"]),
    }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "steps": steps,
        "warmup_steps": ranks[0]["warmup"],
        "world": len(ranks),
        "cadence": cadence,
        "loss_target": workload.loss_target,
        "loss_target_reached": bool(below.size),
        "first_block_loss": first_loss,
        "refresh_steps_timed": len(refresh),
        "setup_s_all": setups,
        "blocks": [
            {"side": b["side"], "first_step": b["first_step"], "speed_factor": b["speed_factor"], "raw_ms": b["raw_ms"]}
            for b in blocks
        ],
        "host": {
            "speed_factor": median([b["speed_factor"] for b in blocks]),
            "calib_ms_p50": median([v for b in blocks for v in b["calib_ms"]]),
            "nominal_calib_ms": NOMINAL_MS,
            "raw_step_ms_p50": median(kaisa["raw_ms"]),
        },
        "end_to_end": end_to_end,
    }
    if args.trace:
        result["per_layer"] = aggregate_trace(ranks, result, kaisa, comm, state_mb, check)

    attempted = 2 * steps + len(checks)
    failed = nonfinite + sum(not c["ok"] for c in checks)
    end_to_end["step_failure_rate"] = entry(failed / attempted)
    result.update({"checks": checks, "attempted": attempted, "failed": failed, "correct": failed == 0})
    return result


def aggregate_trace(ranks: Sequence[dict], result: dict, untraced_kaisa: dict, untraced_comm: dict, state_mb, check) -> dict:
    """Per-layer metrics from the traced pass, and the traced-vs-untraced checks."""
    traced = [r["traced"] for r in ranks]
    steps = traced[0]["steps"]
    cadence = result["cadence"]
    blocks = merge_blocks([t["blocks"] for t in traced])
    kaisa, base = side_series(blocks, "kaisa"), side_series(blocks, "baseline")
    factor_of = {
        f"{b['side']}:{b['first_step'] + i}": b["speed_factor"] for b in blocks for i in range(len(b["raw_ms"]))
    }
    comm = busiest_rank_comm([t["comm"] for t in traced], steps)
    memory = max((t["memory"] for t in traced), key=lambda m: m["total"])
    probes = traced[0]["probes"]

    # Each layer's busy time per step (ms), averaged over ranks.  Counts named
    # *_blocked_s are seconds inside communicator calls at the same boundaries.
    busy: Dict[str, Dict[str, float]] = {}
    for t in traced:
        for name, start, end, _parent, step_id, _rank in t["spans"]:
            per_step = busy.setdefault(name, {})
            per_step[step_id] = per_step.get(step_id, 0.0) + (end - start) * 1e3 / len(traced)
        for name, seconds, step_id, _rank in t["counts"]:
            per_step = busy.setdefault(name, {})
            per_step[step_id] = per_step.get(step_id, 0.0) + seconds * 1e3 / len(traced)

    def metrics(normalised: bool) -> dict:
        ms = "ms" if normalised else "raw_ms"

        def series(name: str, kind: str, only: Optional[str] = None) -> List[float]:
            out = []
            for step_id, duration in busy.get(name, {}).items():
                side_kind, index = step_id.split(":")
                if side_kind == kind and (only is None or step_class(int(index), cadence) == only):
                    out.append(duration / factor_of[step_id] if normalised else duration)
            return out

        def probe(name: str) -> float:
            return probes[name][ms] if probes.get(name) else 0.0

        grad_sync = series("distributed.grad_sync_blocked_s", "kaisa")
        kfac_comm = series("distributed.kfac_blocked_s", "kaisa")
        return {
            "data.next_batch_ms": median(series("data.next_batch", "kaisa")),
            "nn.forward_ms": median(series("nn.forward", "kaisa")),
            "nn.forward_baseline_ms": median(series("nn.forward", "baseline")),
            "tensor.backward_ms": median(series("tensor.backward", "kaisa")),
            "tensor.backward_baseline_ms": median(series("tensor.backward", "baseline")),
            "nn.im2col_ms": probe("nn.im2col"),
            "nn.col2im_ms": probe("nn.col2im"),
            # Hooks only work on factor-update steps, so their cost is a mean over
            # the window; a median would sit on a plain step and read 0.
            "kfac.hook_forward_ms": mean(series("nn.forward", "kaisa")) - mean(series("nn.forward", "baseline")),
            "kfac.hook_backward_ms": mean(series("tensor.backward", "kaisa"))
            - mean(series("tensor.backward", "baseline")),
            "kfac.step_plain_ms": median(series("kfac.step", "kaisa", "plain")),
            "kfac.step_factor_ms": median(series("kfac.step", "kaisa", "factor")),
            "kfac.step_refresh_ms": median(series("kfac.step", "kaisa", "refresh")),
            "kfac.eigen_kernel_ms": probe("kfac.eigen_kernel"),
            "kfac.overhead_ms": mean(kaisa[ms]) - mean(base[ms]),
            "distributed.grad_sync_ms": median(grad_sync),
            "distributed.kfac_comm_ms": median(kfac_comm),
            "distributed.blocked_ms_per_step": median([a + b for a, b in zip(grad_sync, kfac_comm)]),
            "distributed.rank_skew_ms": median(kaisa["skew_ms" if normalised else "raw_skew_ms"]),
            "optim.step_ms": median(series("optim.step", "kaisa")),
            "kfac.step_share": mean(series("kfac.step", "kaisa")) / mean(series("step", "kaisa")),
            # Traced loop vs the untraced Trainer over the same step indices (same
            # seed, same cadence mix): tracing overhead plus Trainer glue.
            "trace.delta_frac": mean(kaisa[ms]) / mean(untraced_kaisa[ms][:steps]) - 1.0,
        }

    normalised, raw = metrics(True), metrics(False)
    per_layer = {name: entry(normalised[name], raw[name]) for name in normalised}
    calls = comm["calls_per_step"]
    counts = {
        "kfac.factor_bytes": memory["factors"],
        "kfac.eigen_bytes": memory["eigen"],
        "kfac.layers_registered": ranks[0]["layers_registered"],
        "distributed.allreduce_calls_per_step": comm["allreduce_calls_per_step"],
        "distributed.broadcast_calls_per_step": comm["broadcast_calls_per_step"],
        "distributed.allreduce_bytes_per_step": comm["allreduce_bytes_per_step"],
        "distributed.broadcast_bytes_per_step": comm["broadcast_bytes_per_step"],
        "distributed.bytes_per_call": comm["bytes_per_step"] / calls if calls else 0.0,
        "memory.step_alloc_peak_mb": traced[0]["alloc_peak_mb"],
        "host.speed_factor": result["host"]["speed_factor"],
        "host.calib_ms_p50": result["host"]["calib_ms_p50"],
        "host.raw_step_ms_p50": result["host"]["raw_step_ms_p50"],
    }
    per_layer.update({name: entry(count) for name, count in counts.items()})

    for what in ("bytes_per_step", "calls_per_step"):
        check(f"traced_comm_{what}_match", comm[what] == untraced_comm[what], f"{comm[what]} vs {untraced_comm[what]}")
    check("traced_kfac_state_match", memory["total"] / MB == state_mb, f"{memory['total'] / MB} vs {state_mb}")
    same_loss = np.allclose(kaisa["loss"], untraced_kaisa["loss"][:steps], rtol=1e-4, atol=0.0)
    check("traced_loop_matches_trainer_loss", same_loss)
    return per_layer


# ------------------------------------------------------------------------------------ main
def write_trace(path: Path, workload: Workload, args, ranks: Sequence[dict]) -> None:
    """The traced run's spans and counts, written once after everything was measured."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload.name,
        "seed": args.seed,
        "span_fields": ["name", "start_s", "end_s", "parent_index", "step_id", "rank"],
        "count_fields": ["name", "value", "step_id", "rank"],
        "ranks": [{"rank": r["rank"], "spans": r["traced"]["spans"], "counts": r["traced"]["counts"]} for r in ranks],
    }
    path.write_text(json.dumps(payload))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, required=True, help="timed KAISA steps (and as many baseline steps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=1)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.steps < BLOCK_STEPS or args.steps % BLOCK_STEPS:
        parser.error(f"--steps must be a positive multiple of {BLOCK_STEPS}")
    if args.setup_repeats < 1:
        parser.error("--setup-repeats must be at least 1")

    workload = WORKLOADS[args.workload]
    if workload.world == 1:
        ranks = [rank_program(workload, args, SingleProcessCommunicator())]
    else:
        ranks = run_spmd(workload.world, lambda comm: rank_program(workload, args, comm))
    result = aggregate(workload, args, ranks)
    if args.trace and args.trace_out is not None:
        write_trace(args.trace_out, workload, args, ranks)
    print(json.dumps(result, default=lambda scalar: scalar.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
