"""Tests for the model zoo: forward shapes, structure and trainability hooks."""

import itertools

import numpy as np
import pytest

from composite_oracle import use_composite_transformer
from repro import models, nn, optim
from repro.data import DataLoader, SyntheticMaskedLM
from repro.distributed import run_spmd
from repro.experiments import SMALL_WORKLOADS
from repro.kfac import KFAC
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.tensor import Tensor
from repro.training import Trainer

RNG = np.random.default_rng(3)


def count_layers(model, cls):
    return sum(1 for m in model.modules() if isinstance(m, cls))


class TestMLP:
    def test_forward_shape(self):
        model = models.MLP(10, [16, 16], 4, rng=RNG)
        assert model(Tensor(RNG.random((5, 10)).astype(np.float32))).shape == (5, 4)

    def test_flattens_images(self):
        model = models.MLP(3 * 4 * 4, [8], 2, rng=RNG)
        assert model(Tensor(RNG.random((2, 3, 4, 4)).astype(np.float32))).shape == (2, 2)

    def test_layer_count(self):
        model = models.MLP(10, [16, 16, 16], 4, rng=RNG)
        assert count_layers(model, Linear) == 4


class TestResNet:
    def test_cifar_resnet20_forward(self):
        model = models.cifar_resnet20(num_classes=10, width_multiplier=0.25, rng=RNG)
        out = model(Tensor(RNG.random((2, 3, 16, 16)).astype(np.float32)))
        assert out.shape == (2, 10)

    def test_cifar_resnet32_block_count(self):
        model = models.cifar_resnet32(width_multiplier=0.25, rng=RNG)
        # 3 stages x 5 BasicBlocks, each with 2 convs, plus stem and downsample convs.
        assert count_layers(model, models.BasicBlock) == 15

    def test_imagenet_resnet18_forward(self):
        model = models.resnet18(num_classes=7, width_multiplier=0.125, rng=RNG)
        out = model(Tensor(RNG.random((1, 3, 32, 32)).astype(np.float32)))
        assert out.shape == (1, 7)

    def test_resnet50_uses_bottleneck(self):
        model = models.resnet50(width_multiplier=0.0625, rng=RNG)
        assert count_layers(model, models.Bottleneck) == 16
        assert count_layers(model, models.BasicBlock) == 0

    def test_resnet_depth_conv_counts(self):
        # Conv layer counts of the full architectures (preconditioned population).
        r18 = models.resnet18(width_multiplier=0.0625, rng=RNG)
        r50 = models.resnet50(width_multiplier=0.0625, rng=RNG)
        assert count_layers(r50, Conv2d) > count_layers(r18, Conv2d)

    def test_width_multiplier_scales_parameters(self):
        small = models.cifar_resnet20(width_multiplier=0.25, rng=np.random.default_rng(0))
        large = models.cifar_resnet20(width_multiplier=0.5, rng=np.random.default_rng(0))
        assert large.num_parameters() > 2 * small.num_parameters()

    def test_full_width_resnet50_parameter_count_close_to_published(self):
        model = models.resnet50(num_classes=1000, width_multiplier=1.0, rng=np.random.default_rng(0))
        published = 25_557_032
        assert abs(model.num_parameters() - published) / published < 0.01

    def test_invalid_stem_raises(self):
        with pytest.raises(ValueError):
            models.ResNet(models.BasicBlock, [2, 2], stem="tpu")

    def test_gradients_reach_first_conv(self):
        model = models.cifar_resnet20(width_multiplier=0.25, rng=RNG)
        loss = nn.CrossEntropyLoss()(model(Tensor(RNG.random((2, 3, 12, 12)).astype(np.float32))), np.array([0, 1]))
        loss.backward()
        assert model.conv1.weight.grad is not None
        assert np.any(model.conv1.weight.grad != 0)


class TestUNet:
    def test_output_matches_input_resolution(self):
        model = models.UNet(in_channels=3, out_channels=1, base_width=4, depth=2, rng=RNG)
        out = model(Tensor(RNG.random((2, 3, 16, 16)).astype(np.float32)))
        assert out.shape == (2, 1, 16, 16)

    def test_depth_changes_conv_count(self):
        shallow = models.UNet(base_width=4, depth=1, rng=RNG)
        deep = models.UNet(base_width=4, depth=3, rng=RNG)
        assert count_layers(deep, Conv2d) > count_layers(shallow, Conv2d)

    def test_all_conv_layers_have_no_linear(self):
        model = models.UNet(base_width=4, depth=2, rng=RNG)
        assert count_layers(model, Linear) == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            models.UNet(depth=0)

    def test_gradients_flow(self):
        model = models.UNet(base_width=4, depth=2, rng=RNG)
        masks = (RNG.random((1, 1, 8, 8)) > 0.5).astype(np.float32)
        loss = nn.DiceLoss()(model(Tensor(RNG.random((1, 3, 8, 8)).astype(np.float32))), masks)
        loss.backward()
        assert model.head.weight.grad is not None


class TestBert:
    def test_tiny_forward_shape(self):
        model = models.bert_tiny(vocab_size=50, rng=RNG)
        tokens = RNG.integers(2, 50, size=(2, 8))
        out = model(tokens)
        assert out.shape == (2, 8, 50)

    def test_encode_returns_hidden_states(self):
        model = models.bert_tiny(vocab_size=50, rng=RNG)
        hidden = model.encode(RNG.integers(2, 50, size=(2, 8)))
        assert hidden.shape == (2, 8, model.config.hidden_size)

    def test_attention_mask_changes_output(self):
        model = models.bert_tiny(vocab_size=50, rng=np.random.default_rng(0))
        model.eval()
        tokens = RNG.integers(2, 50, size=(1, 6))
        full = model(tokens, attention_mask=np.ones((1, 6))).numpy()
        masked = model(tokens, attention_mask=np.array([[1, 1, 1, 0, 0, 0]])).numpy()
        assert not np.allclose(full, masked)

    def test_kfac_excluded_modules_are_the_head(self):
        """The embeddings need no exclusion: no handler registers an ``Embedding``."""
        model = models.bert_tiny(vocab_size=50, rng=RNG)
        assert model.kfac_excluded_modules() == [model.mlm_head]
        pre = KFAC(model, skip_modules=model.kfac_excluded_modules())
        assert not {"token_embedding", "position_embedding", "mlm_head"} & set(pre.layers)
        pre.remove()

    def test_bert_config_validation(self):
        with pytest.raises(ValueError):
            models.BertConfig(hidden_size=10, num_heads=3)

    def test_layer_count_matches_config(self):
        config = models.BertConfig(vocab_size=60, hidden_size=32, num_layers=3, num_heads=4, intermediate_size=64)
        model = models.BertModel(config, rng=RNG)
        assert sum(1 for m in model.modules() if isinstance(m, models.BertLayer)) == 3

    def test_linear_layers_per_block(self):
        model = models.bert_tiny(vocab_size=50, rng=RNG)
        # 2 blocks x (4 attention projections + 2 feed-forward) + 1 MLM head.
        assert count_layers(model, Linear) == 2 * 6 + 1


def bert_kaisa_losses(world_size, grad_worker_frac, steps=20):
    """Per-rank loss series of ``steps`` LAMB + KAISA steps of a narrow ``BertModel``, ranks as threads.

    ``bert_tiny``'s block structure at a quarter of its width (factor dims 33 and 65, so the ``syevd`` path
    still runs) with the ``bert`` workload's hyperparameters: 17 K-FAC layers for a fraction of a second per run.
    """
    hyper = SMALL_WORKLOADS["bert"]
    loss_fn = nn.MaskedLMCrossEntropyLoss()

    def forward_loss(model, batch):
        return loss_fn(model(batch["input_ids"], attention_mask=batch["attention_mask"]), batch["labels"])

    def program(comm):
        # Every rank owns its corpus: the dataset masks tokens from its own generator as items are read.
        data = SyntheticMaskedLM(64, vocab_size=60, seq_length=12, seed=3)
        config = models.BertConfig(vocab_size=60, hidden_size=32, num_layers=2, num_heads=4, intermediate_size=64)
        model = models.BertModel(config, rng=np.random.default_rng(3))
        optimizer = optim.LAMB(model.parameters(), lr=hyper.kfac_lr, weight_decay=hyper.weight_decay)
        preconditioner = KFAC.from_config(
            model,
            hyper.kfac_config(grad_worker_frac=grad_worker_frac),
            comm=comm,
            skip_modules=model.kfac_excluded_modules(),
        )
        trainer = Trainer(model, optimizer, forward_loss, preconditioner=preconditioner, comm=comm)
        losses = []
        for batch in itertools.islice(itertools.cycle(DataLoader(data, batch_size=16, shuffle=True, seed=3)), steps):
            local = {key: value[comm.rank :: comm.world_size] for key, value in batch.items()}
            losses.append(trainer.train_step(local))
        return losses

    return np.asarray(run_spmd(world_size, program))


class TestBertOnTheFusedNodes:
    """The whole training trajectory on the GELU / attention / masked-LM-loss nodes against the composite model."""

    # HYBRID-OPT needs 1 < gradient workers < world size, so it runs at world 4; MEM- and COMM-OPT at world 2.
    @pytest.mark.parametrize(
        "world_size, grad_worker_frac", [(2, 0.5), (4, 0.5), (2, 1.0)], ids=["mem-opt", "hybrid-opt", "comm-opt"]
    )
    def test_twenty_kaisa_lamb_steps_match_the_composite_model(self, monkeypatch, world_size, grad_worker_frac):
        fused = bert_kaisa_losses(world_size, grad_worker_frac)
        use_composite_transformer(monkeypatch)
        composite = bert_kaisa_losses(world_size, grad_worker_frac)
        assert fused.shape == (world_size, 20) and np.isfinite(fused).all()
        assert fused[:, -5:].mean() < fused[:, :5].mean()  # it trains
        np.testing.assert_allclose(fused, composite, rtol=1e-4)


class TestMaskRCNN:
    def test_forward_output_shapes(self):
        model = models.MaskRCNNHeads(num_classes=4, roi_size=14, feature_channels=8, representation_size=32, rng=RNG)
        rois = Tensor(RNG.random((3, 3, 14, 14)).astype(np.float32))
        out = model(rois)
        assert out.class_logits.shape == (3, 4)
        assert out.box_deltas.shape == (3, 16)
        assert out.mask_logits.shape == (3, 4, 14, 14)

    def test_loss_combines_terms_and_backprops(self):
        model = models.MaskRCNNHeads(num_classes=3, roi_size=8, feature_channels=4, representation_size=16, mask_layers=1, rng=RNG)
        rois = Tensor(RNG.random((2, 3, 8, 8)).astype(np.float32))
        out = model(rois)
        labels = np.array([0, 2])
        boxes = RNG.random((2, 4)).astype(np.float32)
        masks = (RNG.random((2, 8, 8)) > 0.5).astype(np.float32)
        loss = models.MaskRCNNLoss()(out, labels, boxes, masks)
        assert loss.item() > 0
        loss.backward()
        assert model.class_predictor.weight.grad is not None
        assert model.mask_predictor.weight.grad is not None

    def test_roi_head_layer_population(self):
        model = models.MaskRCNNHeads(num_classes=5, mask_layers=4, rng=RNG)
        assert count_layers(model, Linear) == 4  # fc1, fc2, class predictor, box predictor
        assert count_layers(model, Conv2d) == 2 + 4 + 1  # feature extractor + mask convs + predictor
