"""Per-seed training losses of a benchmark workload: KAISA and its first-order baseline.

    python3 benchmarks/seed_losses.py --workload resnet_w1 --seeds 901-940 --steps 151 --out A.json
    python3 benchmarks/seed_losses.py --workload resnet_w1 --seeds 901-940 --steps 151 --perturb-ulp --out C.json
    python3 benchmarks/seed_losses.py --compare A.json B.json

``--workload`` is a benchmark workload or one of :data:`LOCAL_WORKLOADS`, the
repo's other models with ``BatchNorm2d`` (``unet_w1``, ``mask_rcnn_w1``), which
the benchmark does not time.  For every seed both trainers of
``benchmarks/e2e`` (``worker.Side``: the workload's model, data order,
optimizer and K-FAC config exactly as the benchmark builds them) run
``--steps`` ``Trainer`` steps, and the mean
training loss of the last 10 steps is printed per seed and trainer.  At world
size > 1 a step's loss is the mean of the ranks' losses.  BLAS is pinned to
one thread and ``REPRO_*`` toggles are cleared, as ``run.py`` does for its
workers, so a seed's losses are a function of the tree alone.

``--perturb-ulp`` moves the first parameter's first element up by one ulp
before training: the same program with one rounding changed, the control that
says how far rounding noise alone moves these losses.  ``--compare`` reads two
``--out`` files and prints, per trainer over their shared seeds, the medians,
the means, how many seeds B ends lower than A, and the two-sided Mann-Whitney
U p-value of the two samples.

Nothing under ``benchmarks/e2e`` is written: no bytecode is cached there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import run  # noqa: E402  (benchmarks/e2e/run.py: the workers' environment)

for _key in [key for key in os.environ if key.startswith(run.TOGGLE_PREFIX)]:
    del os.environ[_key]
os.environ.update(dict.fromkeys(run.SINGLE_THREAD, "1"))  # before NumPy loads its BLAS
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.stats import mannwhitneyu  # noqa: E402

from catalogue import WORKLOADS, Workload  # noqa: E402
from repro.distributed import SingleProcessCommunicator, run_spmd  # noqa: E402
from worker import Side  # noqa: E402

#: Steps averaged into a seed's loss (the benchmark's ``final_loss`` window).
TAIL = 10
KINDS = ("kaisa", "baseline")
#: Workloads of this script only, built by ``worker.Side`` like the benchmark's own.
LOCAL_WORKLOADS = {w.name: w for w in (Workload("unet_w1", "unet", world=1), Workload("mask_rcnn_w1", "mask_rcnn", world=1))}


def seed_range(text: str) -> List[int]:
    """``"901-940"`` or ``"901"``: the inclusive seed schedule."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def nudge_first_parameter(side: Side) -> None:
    """Move the model's first parameter's first element up by one ulp, in place."""
    data = next(iter(side.model.parameters())).data
    data.flat[0] = np.nextafter(data.flat[0], np.inf)


def seed_losses(workload: Workload, seed: int, steps: int, perturb_ulp: bool) -> Dict[str, float]:
    """Mean loss of the last :data:`TAIL` steps of each trainer, trained from ``seed``."""

    def program(comm) -> Dict[str, List[float]]:
        losses = {}
        for kind in KINDS:
            side = Side(workload, seed, comm, kfac=kind == "kaisa")
            if perturb_ulp:
                nudge_first_parameter(side)
            losses[kind] = [side.trainer.train_step(side.next_batch()) for _ in range(steps)]
            if side.preconditioner is not None:
                side.preconditioner.remove()
        return losses

    if workload.world == 1:
        ranks = [program(SingleProcessCommunicator())]
    else:
        ranks = run_spmd(workload.world, program)
    return {kind: float(np.mean(np.mean([r[kind] for r in ranks], axis=0)[-TAIL:])) for kind in KINDS}


def compare(path_a: Path, path_b: Path) -> None:
    """Medians, means, seeds B ends lower and the Mann-Whitney p-value, per trainer."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    seeds = sorted(set(a["seeds"]) & set(b["seeds"]), key=int)
    print(f"{a['workload']}, {a['steps']} steps: A = {path_a} vs B = {path_b}, {len(seeds)} shared seeds")
    print(f"{'trainer':<9} {'median A':>10} {'median B':>10} {'mean A':>10} {'mean B':>10} {'B lower':>9} {'MWU p':>7}")
    for kind in KINDS:
        xs = [a["seeds"][s][kind] for s in seeds]
        ys = [b["seeds"][s][kind] for s in seeds]
        lower = sum(y < x for x, y in zip(xs, ys))
        p_value = mannwhitneyu(xs, ys, alternative="two-sided").pvalue
        print(f"{kind:<9} {statistics.median(xs):>10.4f} {statistics.median(ys):>10.4f} "
              f"{statistics.mean(xs):>10.4f} {statistics.mean(ys):>10.4f} {lower:>4}/{len(seeds):<4} {p_value:>7.3f}")  # fmt: skip


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, *LOCAL_WORKLOADS], default="resnet_w1")
    parser.add_argument("--seeds", default="901-940", help="inclusive range, e.g. 901-940")
    parser.add_argument("--steps", type=int, default=151, help="Trainer steps per trainer and seed")
    parser.add_argument("--perturb-ulp", action="store_true", help="move the first parameter's first element by one ulp")
    parser.add_argument("--out", type=Path, help="write the per-seed losses to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.steps < 1:
        parser.error("--steps must be at least 1")

    workload = {**WORKLOADS, **LOCAL_WORKLOADS}[args.workload]
    result = {"workload": workload.name, "steps": args.steps, "perturb_ulp": args.perturb_ulp, "seeds": {}}
    print(f"{workload.name}: last-{TAIL}-step mean loss after {args.steps} steps"
          f"{' (first parameter moved by one ulp)' if args.perturb_ulp else ''}")  # fmt: skip
    for seed in seed_range(args.seeds):
        losses = result["seeds"][str(seed)] = seed_losses(workload, seed, args.steps, args.perturb_ulp)
        print(f"seed {seed}  " + "  ".join(f"{kind} {losses[kind]:.4f}" for kind in KINDS), flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
