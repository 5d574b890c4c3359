"""BERT-style masked-LM pretraining with LAMB + KAISA, AMP and gradient accumulation.

Demonstrates the three BERT-specific features of the paper:

* K-FAC is applied only to the transformer-block Linear layers — the token /
  position embeddings and the vocabulary prediction head are excluded
  (section 5.2),
* factor statistics are accumulated across gradient-accumulation micro-batches
  (section 4.2),
* factors are stored in half precision and the GradScaler's loss scale is
  removed from the G factors (sections 3.3 and 4.1).

The ``Trainer`` passes LAMB's rate to every ``KFAC.step(lr=...)``, the KL
clip's learning rate.

Run with::

    python examples/bert_masked_lm.py
"""

import numpy as np

from repro import KFAC, KFACConfig, nn, optim
from repro.data import DataLoader, Subset, SyntheticMaskedLM
from repro.models import bert_tiny
from repro.tensor import no_grad
from repro.training import Trainer, TrainingCurve, masked_lm_accuracy


def main() -> None:
    rng = np.random.default_rng(0)
    corpus = SyntheticMaskedLM(num_samples=640, vocab_size=120, seq_length=24, seed=0)
    train = Subset(corpus, range(512))
    val_samples = [corpus[i] for i in range(512, 640)]
    val_inputs = np.stack([s["input_ids"] for s in val_samples])
    val_labels = np.stack([s["labels"] for s in val_samples])

    model = bert_tiny(vocab_size=120, rng=rng)
    optimizer = optim.LAMB(model.parameters(), lr=8e-3, weight_decay=0.01)
    scaler = optim.GradScaler(init_scale=2.0 ** 10)
    config = KFACConfig(
        damping=0.01,
        kl_clip=0.01,
        factor_update_freq=5,
        inv_update_freq=10,
        precision="fp16",  # fp16 factor and eigen storage
    )
    preconditioner = KFAC.from_config(
        model,
        config,
        grad_scaler=scaler,  # unscale the G factors by the current loss scale
        skip_modules=model.kfac_excluded_modules(),
    )
    loss_fn = nn.MaskedLMCrossEntropyLoss()

    def forward_loss(m, batch):
        logits = m(batch["input_ids"], attention_mask=batch["attention_mask"])
        return loss_fn(logits, batch["labels"])

    def evaluate(m):
        with no_grad():
            logits = m(val_inputs).numpy()
        return masked_lm_accuracy(logits, val_labels)

    trainer = Trainer(
        model,
        optimizer,
        forward_loss,
        preconditioner=preconditioner,
        grad_scaler=scaler,
    )

    # Gradient accumulation: feed the trainer *lists* of micro-batches, so each
    # optimization step sees an effective batch of 2 x 16 sequences.
    micro_loader = DataLoader(train, batch_size=16, shuffle=True, seed=0)
    curve = TrainingCurve(name="kaisa-bert")
    for epoch in range(10):
        micro_batches = list(micro_loader)
        pairs = [micro_batches[i : i + 2] for i in range(0, len(micro_batches) - 1, 2)]
        for pair in pairs:
            trainer.train_step(pair)
        accuracy = evaluate(model.eval())
        model.train()
        curve.record(iteration=trainer.iterations, epoch=epoch + 1, metric=accuracy)
        print(
            f"epoch {epoch + 1:2d}  masked-token accuracy {accuracy:.3f}  "
            f"loss scale {scaler.get_scale():.0f}  "
            f"K-FAC memory {preconditioner.memory_usage()['total'] / 1024:.0f} KiB (fp16)"
        )

    print(f"\nBest masked-token accuracy: {curve.best_metric:.3f}")


if __name__ == "__main__":
    main()
