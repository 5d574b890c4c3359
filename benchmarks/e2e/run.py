"""KAISA end-to-end benchmark: one command runs, checks and prints every metric.

    python3 benchmarks/e2e/run.py                      # all four workloads, untraced
    python3 benchmarks/e2e/run.py --workload resnet_w1 --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --out A.json         # append the detailed results to A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own subprocess (``worker.py``) with BLAS pinned to
one thread and every ``REPRO_*`` variable removed, so the numbers are those of
the repo's default path.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated end-to-end
metrics with ``--trace 0``, the per-layer (and ungated end-to-end) metrics
with ``--trace 1``.  See README.md for what every name means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import catalogue
from catalogue import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TOGGLE_PREFIX = "REPRO_"
#: A worker that runs this long is stuck (a hung collective); the driver allows 180 s.
WORKER_TIMEOUT_S = 170
#: memopt and commopt are the same algorithm with different placement.
PLACEMENT_PAIR = ("bert_memopt_w2", "bert_commopt_w2")
PLACEMENT_RTOL = 1e-5


# ----------------------------------------------------------------------------------- running
def worker_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith(TOGGLE_PREFIX)}
    env.update(dict.fromkeys(SINGLE_THREAD, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def stamp(seed: int) -> dict:
    """Everything about the host and the run that a later reader needs to place the numbers."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: show_config() has no dict mode
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit or "unknown",
        "cleared_env": sorted(key for key in os.environ if key.startswith(TOGGLE_PREFIX)),
        "single_thread_env": list(SINGLE_THREAD),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, steps: Optional[int]) -> dict:
    """Run one workload in a subprocess and return its detailed result."""
    if steps is None:
        steps = catalogue.timed_steps(WORKLOADS[name], seconds)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--steps", str(steps),
        "--trace", str(trace),
        # The traced run reports no set-up time, so it sets up once.
        "--setup-repeats", "1" if trace else str(WORKLOADS[name].setup_repeats),
    ]  # fmt: skip
    if trace:
        command += ["--trace-out", str(HERE / "out" / f"trace_{name}_seed{seed}.json")]
    # subprocess.run kills and reaps the child on timeout, so none outlives us.
    done = subprocess.run(
        command, env=worker_environment(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload {name} failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_placement_pair(results: Dict[str, dict]) -> None:
    """memopt and commopt must reach the same loss; a mismatch is a failed check on both."""
    if not all(name in results for name in PLACEMENT_PAIR):
        return
    a, b = (results[name]["end_to_end"]["final_loss"]["value"] for name in PLACEMENT_PAIR)
    ok = abs(a - b) <= PLACEMENT_RTOL * abs(b)
    for name in PLACEMENT_PAIR:
        result = results[name]
        result["checks"].append({"name": "placement_final_loss_agrees", "ok": ok, "detail": f"{a!r} vs {b!r}"})
        result["attempted"] += 1
        result["failed"] += 0 if ok else 1
        result["correct"] = result["failed"] == 0
        result["end_to_end"]["step_failure_rate"]["value"] = result["failed"] / result["attempted"]


def emitted_metrics(result: dict, trace: int) -> Dict[str, dict]:
    """The metrics the last line carries, each with its unit."""
    if trace:
        wanted, source = catalogue.ungated(), {**result["end_to_end"], **result["per_layer"]}
    else:
        wanted, source = catalogue.gated(), result["end_to_end"]
    return {m.name: {"value": source[m.name]["value"], "unit": m.unit} for m in wanted}


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  world {result['world']}  "
          f"{result['steps']}+{result['steps']} timed steps  "
          f"host speed factor {result['host']['speed_factor']:.3f}")  # fmt: skip
    for group, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if group not in result:
            continue
        for metric in metrics:
            entry = result[group][metric.name]
            raw = f"   (raw {entry['raw']:.6g})" if "raw" in entry else ""
            print(f"  {metric.name:<40} {entry['value']:>14.6g} {metric.unit:<6}{raw}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")


# --------------------------------------------------------------------------------- comparing
def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Detailed results from an ``--out`` file, grouped by workload."""
    grouped: Dict[str, List[dict]] = {}
    for result in json.loads(path.read_text()):
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: quartile distance, or the range under 4 runs."""
    centre = statistics.median(values)
    if len(values) < 2 or centre == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(centre)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(centre)


def compare(path_a: Path, path_b: Path) -> int:
    """Print A vs B per workload x end-to-end metric; 1 if anything regressed.

    Losses and counts depend on the seed, so where the two files share seeds
    only the runs of those seeds are compared; a metric that reads the same in
    every compared run (a deterministic one the change left alone) is ``ok``
    whatever its spread across seeds.
    """
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    regressed = False
    print(f"{'workload':<16} {'metric':<24} {'A':>12} {'B':>12} {'diff':>8} {'bound':>6}  verdict")
    for name in WORKLOADS:
        if name not in runs_a or name not in runs_b:
            continue
        shared = {r["seed"] for r in runs_a[name]} & {r["seed"] for r in runs_b[name]}
        side_a = [r for r in runs_a[name] if r["seed"] in shared] or runs_a[name]
        side_b = [r for r in runs_b[name] if r["seed"] in shared] or runs_b[name]
        for metric in END_TO_END:
            a = [r["end_to_end"][metric.name]["value"] for r in side_a]
            b = [r["end_to_end"][metric.name]["value"] for r in side_b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) if metric.better == "lower" else (med_a - med_b)
            relative = worse / abs(med_a) if med_a else (math.inf if worse > 0 else 0.0)
            if relative > metric.bound:
                verdict = "regressed"
            elif sorted(set(a)) == sorted(set(b)) or max(spread(a), spread(b)) <= metric.bound:
                verdict = "ok"
            else:
                verdict = "ok" if separated(a, b, metric.better) else "unresolved"
            regressed |= verdict == "regressed"
            print(f"{name:<16} {metric.name:<24} {med_a:>12.6g} {med_b:>12.6g} {relative:>+8.1%} "
                  f"{metric.bound:>6.0%}  {verdict}")  # fmt: skip
        report_same_seed_losses(side_a, side_b, name, shared)
    return 1 if regressed else 0


def separated(a: Sequence[float], b: Sequence[float], better: str) -> bool:
    """Every run of B reads better than every run of A."""
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def report_same_seed_losses(side_a: Sequence[dict], side_b: Sequence[dict], name: str, seeds) -> None:
    """Say whether runs of one seed and step count reproduced loss and step counts exactly.

    They do on one commit, and across commits whenever the arithmetic was left
    alone; a difference is information, not by itself a regression.
    """
    by_key = {(r["seed"], r["steps"]): r["end_to_end"] for r in side_a}
    pairs = [(by_key[r["seed"], r["steps"]], r["end_to_end"]) for r in side_b if (r["seed"], r["steps"]) in by_key]
    for metric in ("final_loss", "steps_to_loss"):
        differing = sum(x[metric]["value"] != y[metric]["value"] for x, y in pairs)
        if pairs:
            print(f"{name:<16} {metric:<24} identical in {len(pairs) - differing} of {len(pairs)} same-seed pairs "
                  f"(seeds {sorted(seeds)})")  # fmt: skip


# -------------------------------------------------------------------------------------- main
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0, help="seeds data and model")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring budget at nominal host speed; fixes the step counts")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced loop and print the per-layer metrics")  # fmt: skip
    parser.add_argument("--steps", type=int, help="override the timed step count (self-test)")
    parser.add_argument("--out", type=Path, help="append the detailed results to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, args.steps) for name in names}
    check_placement_pair(results)
    run_stamp = stamp(args.seed)
    for result in results.values():
        result["stamp"] = run_stamp
        print_result(result)
    if args.out:
        earlier = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(earlier + list(results.values())))

    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): entry
        for name, result in results.items()
        for metric, entry in emitted_metrics(result, args.trace).items()
    }
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
