"""The benchmark's fixed vocabulary: workloads, metric names, units, directions, bounds.

``BENCHMARK.json`` at the repo root is the copy the driver reads; the
self-test asserts it agrees with this module, which is what the code uses.

End-to-end metrics are split in two:

* **gated** — listed under ``end_to_end`` in ``BENCHMARK.json``.  The driver
  compares medians of runs made with *different* seeds and rejects a spread
  wider than the bound, and a metric that can read 0.  Only metrics that are
  seed-independent to within a third of their bound and never 0 qualify.
* **reported** — same outside-in measurement, printed by name and compared by
  ``run.py --compare`` between runs of the *same* seed (where they are
  deterministic), but listed with the per-layer metrics in ``BENCHMARK.json``
  because they cannot meet the driver's rule: the convergence metrics move
  30-90 % between seeds on ``resnet_w1``, the ``comm_*`` counts are 0 at world
  size 1, and ``step_failure_rate`` is 0 whenever the run is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Steps per timed block; a KAISA block and a baseline block alternate.
BLOCK_STEPS = 10
#: ``--seconds`` value at which every workload runs its ``full_steps``.
FULL_SECONDS = 33


@dataclass(frozen=True)
class Workload:
    name: str
    builder: str  # repro.experiments.build_workload name
    world: int
    kfac_overrides: Dict[str, float] = field(default_factory=dict)
    full_steps: int = 0  # timed KAISA steps (and as many baseline steps) at FULL_SECONDS
    loss_target: float = 0.0  # 10-step moving average of KAISA training loss
    setup_repeats: int = 5  # set-ups per run (median reported): about 4 s of set-up on the defining host
    why: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "resnet_w1",
            "cifar_resnet",
            world=1,
            full_steps=300,
            loss_target=0.5,
            setup_repeats=15,
            why="conv substrate (im2col/col2im, autograd dispatch) is ~85% of the step, K-FAC ~15%: "
            "substrate and conv-handler changes show here, eigen/kernel work barely does",
        ),
        Workload(
            "bert_refresh_w1",
            "bert",
            world=1,
            kfac_overrides={"factor_update_freq": 1, "inv_update_freq": 1},
            full_steps=80,
            loss_target=4.75,
            why="factor and eigen refresh every step, so K-FAC is most of the step: kernel backend, batched eigen, "
            "factor accumulation show here; no conv, so an im2col change must not move it",
        ),
        Workload(
            "bert_memopt_w2",
            "bert",
            world=2,
            kfac_overrides={"grad_worker_frac": 0.5},
            full_steps=160,
            loss_target=4.55,
            setup_repeats=7,
            why="MEM-OPT at world 2: preconditioned gradients broadcast every step, eigen state on one rank per "
            "layer; the communication-heavy, memory-light end of the paper's trade",
        ),
        Workload(
            "bert_commopt_w2",
            "bert",
            world=2,
            kfac_overrides={"grad_worker_frac": 1.0},
            full_steps=160,
            loss_target=4.55,
            setup_repeats=7,
            why="COMM-OPT at world 2: eigen decompositions broadcast on refresh steps only, every rank "
            "preconditions every layer; the memory-heavy end, so a trade between the two shows",
        ),
    )
}


def timed_steps(workload: Workload, seconds: float) -> int:
    """Timed KAISA steps (= baseline steps) for a ``--seconds`` budget.

    All four workloads scale by the one common factor ``seconds / FULL_SECONDS``,
    rounded to whole blocks, so the step count -- and with it every loss and
    count the run reports -- is a function of ``--seconds`` alone, not of how
    fast the host happened to be.
    """
    blocks = round(workload.full_steps * seconds / FULL_SECONDS / BLOCK_STEPS)
    return max(1, blocks) * BLOCK_STEPS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"  # or "higher"
    bound: Optional[float] = None  # share of the baseline by which it may worsen; None = no gate
    gated: bool = False  # listed under end_to_end in BENCHMARK.json


#: End-to-end metrics, the same names on every workload.  A gated bound is
#: about three times the widest quartile spread seen over sets of ten runs
#: with ten seeds (README, "Measured spread"); the others hold between
#: runs of one seed, where the metric is deterministic or nearly so.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", bound=0.25, gated=True),
    Metric("samples_per_s", "1/s", "higher", bound=0.15, gated=True),
    Metric("baseline_samples_per_s", "1/s", "higher", bound=0.25, gated=True),
    Metric("step_ms_p50", "ms", bound=0.2, gated=True),
    Metric("refresh_step_ms_p50", "ms", bound=0.2, gated=True),
    Metric("kfac_state_mb_max_rank", "MB", bound=0.01, gated=True),
    Metric("peak_rss_mb", "MB", bound=0.15, gated=True),
    Metric("steps_to_loss", "count", bound=0.05),
    Metric("time_to_loss_s", "s", bound=0.15),
    Metric("final_loss", "loss", bound=0.02),
    Metric("comm_bytes_per_step", "bytes", bound=0.0),
    Metric("comm_calls_per_step", "count", bound=0.0),
    Metric("step_failure_rate", "ratio", bound=0.0),
)

#: Per-layer metrics from the traced run; layer = module name before the dot.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("data.next_batch_ms", "ms"),
    Metric("nn.forward_ms", "ms"),
    Metric("nn.forward_baseline_ms", "ms"),
    Metric("tensor.backward_ms", "ms"),
    Metric("tensor.backward_baseline_ms", "ms"),
    Metric("nn.im2col_ms", "ms"),
    Metric("nn.col2im_ms", "ms"),
    Metric("kfac.hook_forward_ms", "ms"),
    Metric("kfac.hook_backward_ms", "ms"),
    Metric("kfac.step_plain_ms", "ms"),
    Metric("kfac.step_factor_ms", "ms"),
    Metric("kfac.step_refresh_ms", "ms"),
    Metric("kfac.eigen_kernel_ms", "ms"),
    Metric("kfac.step_share", "ratio"),
    Metric("kfac.overhead_ms", "ms"),
    Metric("kfac.factor_bytes", "bytes"),
    Metric("kfac.eigen_bytes", "bytes"),
    Metric("kfac.layers_registered", "count", "higher"),
    Metric("distributed.allreduce_calls_per_step", "count"),
    Metric("distributed.broadcast_calls_per_step", "count"),
    Metric("distributed.allreduce_bytes_per_step", "bytes"),
    Metric("distributed.broadcast_bytes_per_step", "bytes"),
    Metric("distributed.bytes_per_call", "bytes", "higher"),
    Metric("distributed.grad_sync_ms", "ms"),
    Metric("distributed.kfac_comm_ms", "ms"),
    Metric("distributed.blocked_ms_per_step", "ms"),
    Metric("distributed.rank_skew_ms", "ms"),
    Metric("optim.step_ms", "ms"),
    Metric("memory.step_alloc_peak_mb", "MB"),
    Metric("trace.delta_frac", "ratio"),
    Metric("host.speed_factor", "ratio"),
    Metric("host.calib_ms_p50", "ms"),
    Metric("host.raw_step_ms_p50", "ms"),
)


def gated() -> Tuple[Metric, ...]:
    """Metrics a ``--trace 0`` run prints on its last line."""
    return tuple(m for m in END_TO_END if m.gated)


def ungated() -> Tuple[Metric, ...]:
    """Metrics a ``--trace 1`` run prints on its last line."""
    return PER_LAYER + tuple(m for m in END_TO_END if not m.gated)
