"""Self-test of the benchmark itself, so an API change that breaks it is caught before a full run.

    python3 benchmarks/e2e/selftest.py --quick     # 10 timed steps per workload

Asserts that (1) ``BENCHMARK.json`` names exactly the workloads and metrics of
``catalogue.py``, (2) the benchmark's sources stay outside-in -- none of the
repo's own bookkeeping, no environment toggle, no underscore-prefixed
attribute -- and (3) a traced run of every workload yields every named metric,
finite and unit-tagged, with all correctness checks passing.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import catalogue
import run
from catalogue import BLOCK_STEPS, END_TO_END, PER_LAYER, WORKLOADS

#: What the benchmark must not lean on: each may be deleted by a later change.
FORBIDDEN = {
    "the repo's communication log": re.compile("Communication" + "Log"),
    "the repo's stage profiler": re.compile("Stage" + "Profiler"),
    "the repo's tracer": re.compile(r"repro\.observ" + "ability|from repro import .*observ" + "ability"),
    "an environment toggle": re.compile("REPRO_" + "[A-Z]"),
    "an underscore-prefixed attribute": re.compile(r"\w\._[A-Za-z]"),
}


def check_manifest() -> List[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from catalogue.WORKLOADS")
    gated = [(m.name, m.unit, m.better, m.bound) for m in catalogue.gated()]
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] != gated:
        problems.append("BENCHMARK.json end_to_end differs from the gated metrics of catalogue.END_TO_END")
    ungated = [(m.name, m.unit, m.better) for m in catalogue.ungated()]
    if [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] != ungated:
        problems.append("BENCHMARK.json per_layer differs from catalogue.PER_LAYER + ungated end-to-end metrics")
    if manifest["paths"] != [run.HERE.relative_to(run.ROOT).as_posix()]:
        problems.append("BENCHMARK.json paths is not the benchmark's own directory")
    return problems


def check_sources() -> List[str]:
    problems = []
    for path in sorted(run.HERE.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for what, pattern in FORBIDDEN.items():
                if pattern.search(line):
                    problems.append(f"{path.name}:{number} uses {what}: {line.strip()}")
    return problems


def check_result(result: dict) -> List[str]:
    problems = [f"check {c['name']} failed: {c['detail']}" for c in result["checks"] if not c["ok"]]
    for group, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for metric in metrics:
            entry = result[group].get(metric.name)
            if entry is None:
                problems.append(f"{metric.name} missing")
            elif not math.isfinite(entry["value"]):
                problems.append(f"{metric.name} is not finite: {entry['value']}")
    emitted = run.emitted_metrics(result, trace=1)
    if not all(entry["unit"] for entry in emitted.values()):
        problems.append("a metric is printed without a unit")
    return [f"{result['workload']}: {problem}" for problem in problems]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"{BLOCK_STEPS} timed steps per workload (< 30 s)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    steps = BLOCK_STEPS if args.quick else None

    problems = check_manifest() + check_sources()
    # Two at a time: nothing here is judged on its timing, only on being there.
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(lambda name: run.run_workload(name, args.seed, 15.0, trace=1, steps=steps), WORKLOADS)
        results = dict(zip(WORKLOADS, runs))
    run.check_placement_pair(results)
    for result in results.values():
        problems += check_result(result)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(WORKLOADS)} workloads, {len(END_TO_END) + len(PER_LAYER)} metrics each, "
          f"{len(problems)} problem(s)")  # fmt: skip
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
