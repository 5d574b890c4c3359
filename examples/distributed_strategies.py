"""MEM-OPT vs HYBRID-OPT vs COMM-OPT on the in-process distributed backend.

Runs the same data-parallel KAISA training job on a 4-rank simulated world for
each distribution strategy and shows what the paper's section 3.1 promises:

* all three strategies produce *identical* final models (they are the same
  algorithm — only memory placement and communication differ),
* the per-rank eigen-decomposition memory grows with ``grad_worker_frac``,
* the per-iteration broadcast volume shrinks as ``grad_worker_frac`` grows.

Communication volumes are what rank 0's registry counted (``comm.tracer``:
every rank counts the collectives it took part in), so they are per rank.

The script exits non-zero if a row's replicas differ, if a row's result
differs from MEM-OPT's, or if a rank's ``preconditioner.plan.scheme`` is not
the row's label.

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


def run_strategy(grad_worker_frac: float, bucket_cap_mb: float = 25.0):
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
            grad_worker_frac, lr=0.05, factor_update_freq=2, inv_update_freq=4, bucket_cap_mb=bucket_cap_mb
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
            preconditioner.step()
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
    strategies = [("MEM-OPT", 1.0 / WORLD_SIZE), ("HYBRID-OPT", 0.5), ("COMM-OPT", 1.0)]
    reference = None
    rows, failures = [], []
    for name, frac in strategies:
        params, memory, counted, schemes = run_strategy(frac)
        identical = all(np.allclose(params[0], p, atol=1e-5) for p in params[1:])
        if reference is None:
            reference = params[0]
        same_as_reference = np.allclose(reference, params[0], atol=1e-4)
        if not identical:
            failures.append(f"{name}: the replicas differ")
        if not same_as_reference:
            failures.append(f"{name}: the result differs from MEM-OPT's")
        if set(schemes) != {name}:
            failures.append(f"{name}: the ranks' plans say {schemes}")
        rows.append(
            [
                name,
                f"{frac:.2f}",
                "yes" if identical else "NO",
                "yes" if same_as_reference else "NO",
                round(sum(m["eigen"] for m in memory) / 1024, 1),
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
                "total eigen memory (KiB)",
                "busiest rank's K-FAC state (KiB)",
                "rank 0 broadcast volume (KiB)",
                "rank 0 allreduce volume (KiB)",
            ],
            rows,
            title=f"{WORLD_SIZE}-rank simulated world, {STEPS} training steps",
        )
    )
    print(
        "\nAll strategies compute the same update; COMM-OPT caches every eigen decomposition everywhere "
        "(more memory, no per-iteration broadcast), MEM-OPT does the opposite, HYBRID-OPT interpolates.  "
        "A running factor is kept only by the rank that decomposes it, so under MEM-OPT a rank's K-FAC state "
        "is its share of the layers and nothing else."
    )

    # The bucketed collective engine fuses the per-layer collectives into
    # bucket_cap_mb-capped buffers: same bytes, same bits, fewer messages.  A
    # cap smaller than any tensor sends every tensor alone, for comparison.
    params_alone, _, alone, _ = run_strategy(0.5, bucket_cap_mb=1e-6)
    params_fused, _, fused, _ = run_strategy(0.5)
    assert all(np.array_equal(a, b) for a, b in zip(params_alone, params_fused))
    print(
        f"\nThe default 25 MB bucket cap is bitwise identical to one message per tensor and fuses the "
        f"{sum(messages for messages, _ in alone.values())} collective messages rank 0 takes part in under "
        f"HYBRID-OPT into {sum(messages for messages, _ in fused.values())} "
        f"({sum(nbytes for _, nbytes in fused.values()) / 1024:.1f} KiB through rank 0 either way)."
    )

    # A Trainer synchronises gradients at one seam, a GradientPipeline.  Its own
    # posts everything at flush(), like sync_gradients() above; hand it an
    # instance and it arms it, so gradient averaging and K-FAC factor buckets
    # are posted *during* backward, as the autograd tape finalizes each layer's
    # gradients — still bitwise identical.
    params_hooked, posted = run_hooked_pipeline(0.5)
    assert all(np.array_equal(a, b) for a, b in zip(params_fused, params_hooked))
    print(
        f"\nA GradientPipeline instance handed to the Trainer posts buckets mid-backward "
        f"(rank 0 launched {posted[0]} buckets before flush() in {STEPS} steps) and stays bitwise identical."
    )
    if failures:
        print("\nFAILED:\n  " + "\n  ".join(failures))
        sys.exit(1)


def run_hooked_pipeline(grad_worker_frac: float):
    """The same HYBRID-OPT job driven through a Trainer that arms a GradientPipeline."""
    from repro.training import GradientPipeline, Trainer

    world = ThreadedWorld(WORLD_SIZE)
    final_params = [None] * WORLD_SIZE
    posted = [0] * WORLD_SIZE
    loss_fn = nn.CrossEntropyLoss()

    def rank_program(rank: int) -> None:
        comm = world.communicator(rank)
        model = MLP(10, [32], 4, rng=np.random.default_rng(rank))
        DistributedDataParallel(model, comm)  # broadcast rank 0's weights
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        config = KFACConfig.hybrid(grad_worker_frac, lr=0.05, factor_update_freq=2, inv_update_freq=4)
        preconditioner = KFAC.from_config(model, config, comm=comm)
        # An empty pipeline handed to the Trainer is wired with gradient
        # averaging + the preconditioner's factor subscription automatically.
        pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=0.01)
        trainer = Trainer(
            model,
            optimizer,
            lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
            preconditioner=preconditioner,
            comm=comm,
            pipeline=pipeline,
        )
        batch_rng = np.random.default_rng(7)
        for _ in range(STEPS):
            indices = batch_rng.integers(0, len(FEATURES), 64)
            local = indices[rank::WORLD_SIZE]
            trainer.train_step((FEATURES[local], LABELS[local]))
        final_params[rank] = np.concatenate([p.data.ravel() for p in model.parameters()])
        posted[rank] = int(comm.tracer.counters().get("pipeline/buckets_posted_backward", 0))

    threads = [threading.Thread(target=rank_program, args=(rank,)) for rank in range(WORLD_SIZE)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return final_params, posted


if __name__ == "__main__":
    main()
