"""MEM-OPT vs HYBRID-OPT vs COMM-OPT on the in-process distributed backend.

Runs the same data-parallel KAISA training job on a 4-rank simulated world for
each distribution strategy and shows what the paper's section 3.1 promises:

* all three strategies produce the same final model (they are the same
  algorithm — only memory placement and communication differ), and the
  replicas of each are bitwise identical,
* the per-rank memory of the refreshed state (damped inverses, or eigen
  decompositions) grows with ``grad_worker_frac``,
* the per-iteration broadcast volume shrinks as ``grad_worker_frac`` grows.

Everything runs twice: on the default solve path (``solve_strategy="inverse"``:
π-damped Cholesky inverses, shipped as packed triangles) and on the paper's
eigen path (``solve_strategy="eigen"``).

Communication volumes are what rank 0's registry counted (``comm.tracer``:
every rank counts the collectives it took part in), so they are per rank.

The script exits non-zero, on either path, if a row's replicas differ in any
bit, if a row's result differs from MEM-OPT's (in any bit on the inverse
path, beyond rounding on the eigen path), if a rank's
``preconditioner.plan.scheme`` is not the row's label, or if a ``Trainer``
running the HYBRID-OPT job ends anywhere but the hand-written Listing-1 loop
does, bit for bit (both pass the optimizer's rate to ``KFAC.step(lr=...)``).

Run with::

    python examples/distributed_strategies.py
"""

import sys
import threading

import numpy as np

from repro import KFAC, KFACConfig, Tensor, nn, optim
from repro.distributed import DistributedDataParallel, ThreadedWorld
from repro.experiments import format_table
from repro.models import MLP

WORLD_SIZE = 4
STEPS = 12

RNG = np.random.default_rng(0)
FEATURES = RNG.standard_normal((512, 10)).astype(np.float32)
LABELS = (FEATURES @ RNG.standard_normal((10, 4)).astype(np.float32)).argmax(axis=1)


def comm_counters(comm) -> dict:
    """``{op: (messages, bytes)}`` this rank's registry counted."""
    counters = comm.tracer.counters()
    return {
        op: (int(counters.get(f"comm/{op}/messages", 0)), int(counters.get(f"comm/{op}/bytes", 0)))
        for op in ("allreduce", "broadcast")
    }


def run_strategy(grad_worker_frac: float, solver: str, bucket_cap_mb: float = 25.0):
    """Train on a fresh 4-rank world; return (final params, per-rank memory, rank 0's comm counters, per-rank schemes)."""
    world = ThreadedWorld(WORLD_SIZE)
    final_params = [None] * WORLD_SIZE
    memory = [None] * WORLD_SIZE
    counted = [None] * WORLD_SIZE
    schemes = [None] * WORLD_SIZE

    def rank_program(rank: int) -> None:
        comm = world.communicator(rank)
        model = MLP(10, [32], 4, rng=np.random.default_rng(rank))
        ddp = DistributedDataParallel(model, comm)  # broadcast rank 0's weights
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        config = KFACConfig.hybrid(
            grad_worker_frac,
            factor_update_freq=2,
            inv_update_freq=4,
            bucket_cap_mb=bucket_cap_mb,
            solve_strategy=solver,
        )
        preconditioner = KFAC.from_config(model, config, comm=comm)
        loss_fn = nn.CrossEntropyLoss()
        batch_rng = np.random.default_rng(7)
        for _ in range(STEPS):
            indices = batch_rng.integers(0, len(FEATURES), 64)
            local = indices[rank::WORLD_SIZE]
            optimizer.zero_grad()
            loss_fn(model(Tensor(FEATURES[local])), LABELS[local]).backward()
            ddp.sync_gradients()
            preconditioner.step(lr=optimizer.param_groups[0]["lr"])
            optimizer.step()
        final_params[rank] = np.concatenate([p.data.ravel() for p in model.parameters()])
        memory[rank] = preconditioner.memory_usage()
        counted[rank] = comm_counters(comm)
        schemes[rank] = preconditioner.plan.scheme

    threads = [threading.Thread(target=rank_program, args=(rank,)) for rank in range(WORLD_SIZE)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return final_params, memory, counted[0], schemes


def main() -> None:
    failures = []
    for solver in ("inverse", "eigen"):
        failures += check_schemes(solver)
    if failures:
        print("\nFAILED:\n  " + "\n  ".join(failures))
        sys.exit(1)


def check_schemes(solver: str) -> list:
    """Print the scheme table of one solve path and run its checks; returns what failed."""
    strategies = [("MEM-OPT", 1.0 / WORLD_SIZE), ("HYBRID-OPT", 0.5), ("COMM-OPT", 1.0)]
    reference = None
    rows, failures = [], []
    for name, frac in strategies:
        params, memory, counted, schemes = run_strategy(frac, solver)
        identical = all(np.array_equal(params[0], p) for p in params[1:])
        if reference is None:
            reference = params[0]
        # An inverse has one layout whatever the group, so the schemes agree bitwise.  On the eigen
        # path only up to rounding: a group of one keeps the eigenbasis as syevd returns it, a
        # broadcast re-lays it out row-major.
        if solver == "inverse":
            same_as_reference = np.array_equal(reference, params[0])
        else:
            same_as_reference = np.allclose(reference, params[0], atol=1e-4)
        if not identical:
            failures.append(f"{solver} {name}: the replicas differ")
        if not same_as_reference:
            failures.append(f"{solver} {name}: the result differs from MEM-OPT's")
        if set(schemes) != {name}:
            failures.append(f"{solver} {name}: the ranks' plans say {schemes}")
        rows.append(
            [
                name,
                f"{frac:.2f}",
                "yes" if identical else "NO",
                "yes" if same_as_reference else "NO",
                round(sum(m["eigen"] + m["solver"] for m in memory) / 1024, 1),
                round(max(m["total"] for m in memory) / 1024, 1),
                round(counted["broadcast"][1] / 1024, 1),
                round(counted["allreduce"][1] / 1024, 1),
            ]
        )

    print(
        format_table(
            [
                "strategy",
                "grad_worker_frac",
                "replicas identical",
                "same result as MEM-OPT",
                f"total {solver} state (KiB)",
                "busiest rank's K-FAC state (KiB)",
                "rank 0 broadcast volume (KiB)",
                "rank 0 allreduce volume (KiB)",
            ],
            rows,
            title=f"{WORLD_SIZE}-rank simulated world, {STEPS} training steps, solve_strategy={solver!r}",
        )
    )
    print(
        "\nAll strategies compute the same update; COMM-OPT caches every layer's refreshed state everywhere "
        "(more memory, no per-iteration broadcast), MEM-OPT does the opposite, HYBRID-OPT interpolates.  "
        "A running factor is kept only by the rank that decomposes it, so under MEM-OPT a rank's K-FAC state "
        "is its share of the layers and nothing else."
    )

    # The bucketed collective engine fuses the per-layer collectives into
    # bucket_cap_mb-capped buffers: same bytes, same bits, fewer messages.  A
    # cap smaller than any tensor sends every tensor alone, for comparison.
    params_alone, _, alone, _ = run_strategy(0.5, solver, bucket_cap_mb=1e-6)
    params_fused, _, fused, _ = run_strategy(0.5, solver)
    if not all(np.array_equal(a, b) for a, b in zip(params_alone, params_fused)):
        failures.append(f"{solver} HYBRID-OPT: one message per tensor and the fused default disagree")
    print(
        f"\nThe default 25 MB bucket cap is bitwise identical to one message per tensor and fuses the "
        f"{sum(messages for messages, _ in alone.values())} collective messages rank 0 takes part in under "
        f"HYBRID-OPT into {sum(messages for messages, _ in fused.values())} "
        f"({sum(nbytes for _, nbytes in fused.values()) / 1024:.1f} KiB through rank 0 either way)."
    )

    # A Trainer step is the paper's Listing 1: backward, one sync_gradients()
    # call, preconditioner.step(), optimizer.step() -- the loop above, bit for bit.
    params_trainer = run_trainer(0.5, solver)
    if not all(np.array_equal(a, b) for a, b in zip(params_fused, params_trainer)):
        failures.append(f"{solver} HYBRID-OPT: the Trainer's parameters differ from the hand-written Listing-1 loop's")
    else:
        print("\nThe same HYBRID-OPT job driven through a Trainer ends on the hand-written loop's parameters, bit for bit.\n")
    return failures


def run_trainer(grad_worker_frac: float, solver: str):
    """The same HYBRID-OPT job driven through a Trainer; returns every rank's final parameters."""
    from repro.training import Trainer

    world = ThreadedWorld(WORLD_SIZE)
    final_params = [None] * WORLD_SIZE
    loss_fn = nn.CrossEntropyLoss()

    def rank_program(rank: int) -> None:
        comm = world.communicator(rank)
        model = MLP(10, [32], 4, rng=np.random.default_rng(rank))
        DistributedDataParallel(model, comm)  # broadcast rank 0's weights
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        config = KFACConfig.hybrid(
            grad_worker_frac, factor_update_freq=2, inv_update_freq=4, solve_strategy=solver
        )
        preconditioner = KFAC.from_config(model, config, comm=comm)
        trainer = Trainer(
            model,
            optimizer,
            lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
            preconditioner=preconditioner,
            comm=comm,
        )
        batch_rng = np.random.default_rng(7)
        for _ in range(STEPS):
            indices = batch_rng.integers(0, len(FEATURES), 64)
            local = indices[rank::WORLD_SIZE]
            trainer.train_step((FEATURES[local], LABELS[local]))
        final_params[rank] = np.concatenate([p.data.ravel() for p in model.parameters()])

    threads = [threading.Thread(target=rank_program, args=(rank,)) for rank in range(WORLD_SIZE)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return final_params


if __name__ == "__main__":
    main()
