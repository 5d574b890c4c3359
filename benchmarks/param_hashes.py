"""The bits table: a SHA-256 of every rank's parameters after a short K-FAC run, per world, fraction and path.

    python3 benchmarks/param_hashes.py --out A.json
    python3 benchmarks/param_hashes.py --compare A.json B.json

Each row trains ``build_workload("bert", seed=0)`` for ``STEPS`` ``Trainer``
steps on a threaded world (``run_spmd``) under the workload's
``kfac_config(factor_update_freq=1, inv_update_freq=3, grad_worker_frac=...,
solve_strategy=...)``: world 1 (fraction 1), 2 (0.5, 1) and 4 (0.25, 0.5, 1),
on the inverse and the eigen path, twelve rows.  Every rank takes its
``rank::world`` slice of each loader batch.  A row's value is, per rank, the
SHA-256 of the rank's parameters concatenated in ``model.parameters()``
order.  BLAS is pinned to one thread before NumPy is imported, so a row is a
function of the tree and the NumPy / SciPy builds alone (both are recorded).

The run exits 1 unless, in every world, every rank of a row has the same hash
and every ``grad_worker_frac`` of a path gives the same hash: the placement
of the work changes no bit.  ``--compare`` reads two ``--out`` files, names
the rows whose hashes differ and exits 1 if any do: a change that should keep
every bit shows 0 differing rows against its parent.  Only the public
training surface is used, so the script runs on any tree that has it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.distributed import run_spmd  # noqa: E402
from repro.experiments import build_workload, make_optimizer  # noqa: E402
from repro.kfac import KFAC  # noqa: E402
from repro.training import Trainer  # noqa: E402

STEPS = 12
#: Per world size, the gradient-worker fractions it runs: MEM-OPT, HYBRID-OPT, COMM-OPT where distinct.
FRACTIONS = {1: (1.0,), 2: (0.5, 1.0), 4: (0.25, 0.5, 1.0)}
PATHS = ("inverse", "eigen")


def row_key(world: int, path: str, frac: float) -> str:
    return f"w{world}/{path}/frac{frac:g}"


def rank_hashes(world: int, path: str, frac: float) -> list:
    """The SHA-256 of each rank's parameters after ``STEPS`` steps of the row."""

    def program(comm):
        built = build_workload("bert", seed=0)
        config = built.config
        optimizer = make_optimizer(
            config.baseline_optimizer,
            built.model.parameters(),
            lr=config.kfac_lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        kfac_config = config.kfac_config(
            factor_update_freq=1, inv_update_freq=3, grad_worker_frac=frac, solve_strategy=path
        )
        pre = KFAC.from_config(built.model, kfac_config, comm=comm, skip_modules=built.kfac_skip_modules)
        trainer = Trainer(built.model, optimizer, built.forward_loss, preconditioner=pre, comm=comm)
        done = 0
        while done < STEPS:
            for batch in built.train_loader:
                trainer.train_step({key: value[comm.rank :: world] for key, value in batch.items()})
                done += 1
                if done == STEPS:
                    break
        pre.remove()
        flat = np.concatenate([p.data.ravel() for p in built.model.parameters()])
        return hashlib.sha256(flat.tobytes()).hexdigest()

    return run_spmd(world, program)


def problems(rows: dict) -> list:
    """Rows whose ranks disagree, and paths of a world whose fractions disagree."""
    found = [f"{key}: ranks differ" for key, hashes in rows.items() if len(set(hashes)) != 1]
    for world, fracs in FRACTIONS.items():
        for path in PATHS:
            values = {rows[row_key(world, path, frac)][0] for frac in fracs}
            if len(values) != 1:
                found.append(f"w{world}/{path}: the fractions {fracs} give {len(values)} hashes")
    return found


def run(out: str) -> int:
    rows = {}
    for world, fracs in FRACTIONS.items():
        for path in PATHS:
            for frac in fracs:
                key = row_key(world, path, frac)
                rows[key] = rank_hashes(world, path, frac)
                print(f"{key:24s} " + " ".join(value[:16] for value in rows[key]), flush=True)
    result = {
        "steps": STEPS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "rows": rows,
    }
    if out:
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    found = problems(rows)
    for problem in found:
        print(f"PROBLEM: {problem}")
    print(f"{len(rows)} rows, {len(found)} problems")
    return 1 if found else 0


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (a_path, b_path))
    for key in ("numpy", "scipy", "steps"):
        if a.get(key) != b.get(key):
            print(f"note: {key} {a.get(key)} vs {b.get(key)}")
    keys = sorted(set(a["rows"]) | set(b["rows"]))
    differing = [key for key in keys if a["rows"].get(key) != b["rows"].get(key)]
    for key in differing:
        print(f"DIFFERS: {key}")
    print(f"{len(differing)} of {len(keys)} rows differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="", help="write the table as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="name the rows two --out files differ in")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run(args.out)


if __name__ == "__main__":
    sys.exit(main())
