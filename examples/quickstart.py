"""Quickstart: add KAISA (K-FAC) to an existing training loop in two lines.

This mirrors Listing 1 of the paper: construct the preconditioner once, then
call ``preconditioner.step(lr=...)`` right before ``optimizer.step()``, with
the rate the optimizer is about to apply (the KL clip's learning rate).  The
K-FAC hyperparameters live in a validated, serializable :class:`KFACConfig`;
``KFACConfig.comm_opt()`` / ``.hybrid()`` / ``.mem_opt(world_size)`` select
the paper's section-3.1 distribution strategies by name.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import KFAC, KFACConfig, Tensor, nn, optim
from repro.data import DataLoader, SpiralClassification
from repro.models import MLP
from repro.tensor import no_grad
from repro.training import classification_accuracy


def main() -> None:
    rng = np.random.default_rng(0)

    # A small but genuinely hard optimisation problem: interleaved spirals.
    dataset = SpiralClassification(num_samples=768, num_classes=3, seed=0)
    holdout = SpiralClassification(num_samples=255, num_classes=3, seed=1)
    loader = DataLoader(dataset, batch_size=64, shuffle=True, seed=0)

    model = MLP(in_features=2, hidden_sizes=[32, 32], num_classes=3, rng=rng)
    optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)

    # The two KAISA lines (Listing 1): create the preconditioner, call step().
    config = KFACConfig.comm_opt(factor_update_freq=2, inv_update_freq=4)
    preconditioner = KFAC.from_config(model, config)

    loss_fn = nn.CrossEntropyLoss()
    for epoch in range(15):
        for features, labels in loader:
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(features)), labels)
            loss.backward()
            preconditioner.step(lr=optimizer.param_groups[0]["lr"])  # precondition gradients in place
            optimizer.step()

        model.eval()
        with no_grad():
            accuracy = classification_accuracy(model(Tensor(holdout.features)).numpy(), holdout.labels)
        model.train()
        print(f"epoch {epoch + 1:2d}  loss {loss.item():.4f}  holdout accuracy {accuracy:.3f}")

    usage = preconditioner.memory_usage()
    print(
        f"\nK-FAC state on this process: {usage['factors'] / 1024:.1f} KiB of factors, "
        f"{(usage['eigen'] + usage['solver']) / 1024:.1f} KiB of second-order state (inverses or eigen decompositions)"
    )


if __name__ == "__main__":
    main()
