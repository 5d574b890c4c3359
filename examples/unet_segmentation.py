"""U-Net segmentation with ADAM + KAISA (the paper's section 5.3 U-Net experiment).

The paper applies K-FAC to *all* convolutional layers of a U-Net trained on
brain-MRI tumour segmentation and reports a 25.4% shorter time to the target
Dice similarity coefficient.  This example trains the CPU-scale U-Net analogue
on synthetic blob segmentation, with and without the preconditioner, and
reports the Dice curves.  The ``Trainer`` passes ADAM's rate to every
``KFAC.step(lr=...)``, the KL clip's learning rate.

Run with::

    python examples/unet_segmentation.py
"""

import numpy as np

from repro import KFAC, Tensor, nn, optim
from repro.data import DataLoader, SyntheticSegmentation
from repro.models import UNet
from repro.tensor import no_grad
from repro.training import Trainer, TrainingCurve, segmentation_dice


def build(seed: int = 0):
    rng = np.random.default_rng(seed)
    train = SyntheticSegmentation(192, image_size=24, seed=seed)
    val = SyntheticSegmentation(48, image_size=24, seed=seed + 1)
    model = UNet(in_channels=3, out_channels=1, base_width=8, depth=2, rng=rng)
    loader = DataLoader(train, batch_size=16, shuffle=True, seed=seed)
    dice_loss, bce_loss = nn.DiceLoss(), nn.BCEWithLogitsLoss()

    def forward_loss(m, batch):
        images, masks = batch
        logits = m(Tensor(images))
        return dice_loss(logits, masks) + bce_loss(logits, masks)

    def evaluate(m):
        with no_grad():
            logits = m(Tensor(val.images)).numpy()
        return segmentation_dice(logits, val.masks)

    return model, loader, forward_loss, evaluate


def train_once(use_kfac: bool, epochs: int = 12) -> TrainingCurve:
    model, loader, forward_loss, evaluate = build(seed=0)
    optimizer = optim.Adam(model.parameters(), lr=3e-3)
    preconditioner = None
    if use_kfac:
        # All Conv2d layers are preconditioned, exactly as in the paper.
        preconditioner = KFAC(model, factor_update_freq=4, inv_update_freq=8)
    trainer = Trainer(model, optimizer, forward_loss, preconditioner=preconditioner)
    curve = TrainingCurve(name="KAISA" if use_kfac else "ADAM")
    trainer.fit(loader, epochs=epochs, evaluate_fn=evaluate, curve=curve)
    return curve


def main() -> None:
    target = 0.97
    adam = train_once(use_kfac=False)
    kaisa = train_once(use_kfac=True)
    print("epoch  ADAM Dice  KAISA Dice")
    for index, (a, k) in enumerate(zip(adam.points, kaisa.points), start=1):
        print(f"{index:5d}  {a.metric:9.3f}  {k.metric:10.3f}")
    print(f"\nEpochs to Dice >= {target}:  ADAM={adam.epochs_to_target(target)}  KAISA={kaisa.epochs_to_target(target)}")


if __name__ == "__main__":
    main()
