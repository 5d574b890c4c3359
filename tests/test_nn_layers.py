"""Tests for individual nn layers: Linear, Conv2d, pooling, norms, activations, embedding, attention."""

import numpy as np
import pytest

from composite_oracle import attention_forward_composite
from gradcheck import graph_nodes
from repro import nn
from repro.nn import functional as F
from repro.tensor import Tensor, no_grad
from repro.tensor import tensor as tape

RNG = np.random.default_rng(11)


def naive_conv2d(x, weight, bias, stride, padding):
    """Reference direct convolution for correctness checks."""
    n, c, h, w = x.shape
    out_c, _, kh, kw = weight.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, out_c, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for oc in range(out_c):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x_pad[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[b, oc] += bias[oc]
    return out


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(6, 4, rng=RNG)
        assert layer(Tensor(RNG.random((3, 6)).astype(np.float32))).shape == (3, 4)

    def test_matches_manual_affine(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        x = RNG.random((4, 5)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected, rtol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False, rng=RNG)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_3d_input(self):
        layer = nn.Linear(8, 2, rng=RNG)
        assert layer(Tensor(RNG.random((2, 7, 8)).astype(np.float32))).shape == (2, 7, 2)

    def test_weight_shape_is_out_by_in(self):
        layer = nn.Linear(7, 9, rng=RNG)
        assert layer.weight.shape == (9, 7)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_convolution(self, stride, padding):
        conv = nn.Conv2d(3, 4, 3, stride=stride, padding=padding, rng=np.random.default_rng(2))
        x = RNG.random((2, 3, 7, 7)).astype(np.float32)
        expected = naive_conv2d(x.astype(np.float64), conv.weight.data.astype(np.float64), conv.bias.data.astype(np.float64), stride, padding)
        np.testing.assert_allclose(conv(Tensor(x)).numpy(), expected, rtol=1e-4, atol=1e-5)

    def test_output_shape_formula(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=RNG)
        assert conv.output_shape(16, 16) == (8, 8)
        assert conv(Tensor(RNG.random((1, 3, 16, 16)).astype(np.float32))).shape == (1, 8, 8, 8)

    def test_1x1_convolution(self):
        conv = nn.Conv2d(4, 2, 1, rng=RNG)
        x = RNG.random((1, 4, 5, 5)).astype(np.float32)
        out = conv(Tensor(x))
        assert out.shape == (1, 2, 5, 5)

    def test_no_bias(self):
        conv = nn.Conv2d(3, 4, 3, bias=False, rng=RNG)
        assert conv.bias is None

    def test_gradients_flow_to_weight_and_input(self):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=RNG)
        x = Tensor(RNG.random((2, 2, 6, 6)).astype(np.float32), requires_grad=True)
        conv(x).sum().backward()
        assert conv.weight.grad.shape == conv.weight.shape
        assert x.grad.shape == x.shape


class TestIm2col:
    def test_roundtrip_multiplicity(self):
        x = RNG.random((2, 3, 6, 6)).astype(np.float32)
        cols, oh, ow = F.im2col(x, (3, 3), 1, 1)
        assert cols.shape == (2, 27, oh * ow)
        ones = np.ones_like(x)
        ones_cols, _, _ = F.im2col(ones, (3, 3), 1, 1)
        mult = F.col2im(ones_cols, x.shape, (3, 3), 1, 1)
        recon = F.col2im(cols, x.shape, (3, 3), 1, 1)
        np.testing.assert_allclose(recon, x * mult, rtol=1e-5)

    def test_non_overlapping_roundtrip_exact(self):
        x = RNG.random((1, 2, 4, 4)).astype(np.float32)
        cols, _, _ = F.im2col(x, (2, 2), 2, 0)
        recon = F.col2im(cols, x.shape, (2, 2), 2, 0)
        np.testing.assert_allclose(recon, x, rtol=1e-6)

    def test_conv_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(7, 7, 2, 3) == 4


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = nn.MaxPool2d(2)(Tensor(x))
        np.testing.assert_allclose(out.numpy().reshape(2, 2), [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        nn.MaxPool2d(2)(x).sum().backward()
        grad = x.grad.reshape(4, 4)
        assert grad[1, 1] == 1 and grad[0, 0] == 0
        assert grad.sum() == 4

    def test_avgpool_values(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        out = nn.AvgPool2d(2)(Tensor(x))
        np.testing.assert_allclose(out.numpy(), np.ones((1, 2, 2, 2)))

    def test_global_avgpool(self):
        x = RNG.random((3, 5, 4, 4)).astype(np.float32)
        out = nn.GlobalAvgPool2d()(Tensor(x))
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out.numpy(), x.mean(axis=(2, 3)), rtol=1e-5)

    def test_maxpool_with_stride_and_padding(self):
        x = RNG.random((1, 1, 7, 7)).astype(np.float32)
        out = nn.MaxPool2d(3, stride=2, padding=1)(Tensor(x))
        assert out.shape == (1, 1, 4, 4)


class TestUpsample:
    def test_nearest_upsampling_repeats(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        out = nn.Upsample2d(2)(Tensor(x)).numpy().reshape(4, 4)
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32)
        np.testing.assert_allclose(out, expected)

    def test_upsample_backward_sums(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        nn.Upsample2d(2)(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))


class TestNorms:
    def test_batchnorm_normalizes_in_training(self):
        bn = nn.BatchNorm2d(3)
        x = RNG.random((8, 3, 5, 5)).astype(np.float32) * 4 + 2
        out = bn(Tensor(x)).numpy()
        assert abs(out.mean()) < 1e-4
        assert abs(out.std() - 1.0) < 1e-2

    def test_batchnorm_updates_running_stats(self):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = np.full((4, 2, 3, 3), 10.0, dtype=np.float32)
        bn(Tensor(x))
        assert np.all(bn._buffers["running_mean"] > 0)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        x = RNG.random((8, 2, 4, 4)).astype(np.float32)
        for _ in range(5):
            bn(Tensor(x))
        bn.eval()
        out_eval = bn(Tensor(x)).numpy()
        assert abs(out_eval.mean()) < 0.5  # roughly normalised by running stats

    def test_layernorm_normalizes_last_dim(self):
        ln = nn.LayerNorm(16)
        x = RNG.random((4, 7, 16)).astype(np.float32) * 3 + 1
        out = ln(Tensor(x)).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_affine_parameters(self):
        ln = nn.LayerNorm(8)
        assert len(list(ln.parameters())) == 2


class TestActivationsDropout:
    def test_relu_module(self):
        np.testing.assert_allclose(nn.ReLU()(Tensor([-1.0, 1.0])).numpy(), [0.0, 1.0])

    def test_gelu_close_to_relu_for_large_inputs(self):
        x = np.array([5.0, -5.0], dtype=np.float32)
        out = nn.GELU()(Tensor(x)).numpy()
        np.testing.assert_allclose(out, [5.0, 0.0], atol=1e-2)

    def test_softmax_rows_sum_to_one(self):
        out = nn.Softmax(axis=-1)(Tensor(RNG.standard_normal((4, 6)).astype(np.float32))).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)

    def test_dropout_train_vs_eval(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out_train = drop(x).numpy()
        assert (out_train == 0).mean() == pytest.approx(0.5, abs=0.05)
        drop.eval()
        np.testing.assert_allclose(drop(x).numpy(), 1.0)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestEmbeddingAttention:
    def test_embedding_lookup(self):
        emb = nn.Embedding(10, 4, rng=np.random.default_rng(0))
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.numpy()[0, 0], emb.weight.data[1])

    def test_embedding_out_of_range(self):
        emb = nn.Embedding(5, 4)
        with pytest.raises(IndexError):
            emb(np.array([7]))

    def test_embedding_gradient_sparse_accumulation(self):
        emb = nn.Embedding(6, 3, rng=np.random.default_rng(0))
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        assert emb.weight.grad[1].sum() == pytest.approx(6.0, rel=1e-5)  # used twice
        assert emb.weight.grad[0].sum() == 0.0

    def test_attention_output_shape(self):
        attn = nn.MultiHeadSelfAttention(16, 4, rng=RNG)
        out = attn(Tensor(RNG.random((2, 5, 16)).astype(np.float32)))
        assert out.shape == (2, 5, 16)

    def test_attention_mask_blocks_padding(self):
        attn = nn.MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        x = RNG.random((1, 4, 8)).astype(np.float32)
        mask_full = np.ones((1, 4))
        mask_padded = np.array([[1, 1, 0, 0]], dtype=np.float32)
        out_full = attn(Tensor(x), attention_mask=mask_full).numpy()
        out_masked = attn(Tensor(x), attention_mask=mask_padded).numpy()
        assert not np.allclose(out_full, out_masked)

    def test_attention_invalid_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, 3)


def attention_pair(dropout=0.0, dtype=np.float32, seed=5):
    """Two identically initialised attention modules (same weights, same dropout stream) and an input."""
    modules = [nn.MultiHeadSelfAttention(8, 2, dropout=dropout, rng=np.random.default_rng(seed)) for _ in range(2)]
    if dtype != np.float32:
        for module in modules:
            for param in module.parameters():
                param.data = param.data.astype(dtype)
    rng = np.random.default_rng(seed + 1)
    return modules, rng.standard_normal((3, 5, 8)).astype(dtype), rng.standard_normal((3, 5, 8)).astype(dtype)


def attention_backward(forward, module, x, probe, mask, input_requires_grad=True):
    source = Tensor(x, requires_grad=input_requires_grad)
    out = forward(module, source, mask)
    (out * Tensor(probe)).sum().backward()
    return out, source.grad, {name: p.grad for name, p in module.named_parameters()}


#: (N, L) padding masks: none, a ragged batch, and one with a fully padded sample.
PADDING = {
    "no_mask": None,
    "ragged": np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]]),
    "fully_padded_row": np.array([[1, 1, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 0, 0, 0]]),
}


class TestAttentionModuleOnTheNode:
    """``MultiHeadSelfAttention`` on the fused core against the same module on the composite core."""

    TOL = dict(rtol=1e-5, atol=1e-6)

    def assert_same(self, got, reference):
        (out, grad_x, grads), (ref_out, ref_grad_x, ref_grads) = got, reference
        assert out.dtype == ref_out.dtype
        np.testing.assert_allclose(out.data, ref_out.data, **self.TOL)
        np.testing.assert_allclose(grad_x, ref_grad_x, **self.TOL)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], err_msg=name, **self.TOL)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", sorted(PADDING))
    def test_matches_composite_with_and_without_padding(self, padding, dtype):
        (fused, composite), x, probe = attention_pair(dtype=dtype)
        got = attention_backward(nn.MultiHeadSelfAttention.forward, fused, x, probe, PADDING[padding])
        self.assert_same(got, attention_backward(attention_forward_composite, composite, x, probe, PADDING[padding]))

    @pytest.mark.parametrize("padding", ["no_mask", "ragged"])
    def test_train_mode_dropout_draws_the_mask_dropout_forward_would(self, padding):
        (fused, composite), x, probe = attention_pair(dropout=0.3)
        got = attention_backward(nn.MultiHeadSelfAttention.forward, fused, x, probe, PADDING[padding])
        self.assert_same(got, attention_backward(attention_forward_composite, composite, x, probe, PADDING[padding]))
        # Same seed -> same mask; and the stream was advanced by exactly one (N, H, L, L) draw.
        assert fused.dropout._rng.bit_generator.state == composite.dropout._rng.bit_generator.state
        assert fused.dropout._rng.bit_generator.state != np.random.default_rng(5).bit_generator.state
        undropped = attention_pair(dropout=0.0)[0][0]
        assert not np.allclose(got[0].data, undropped(Tensor(x), PADDING[padding]).data)

    def test_eval_mode_draws_nothing(self):
        (fused, composite), x, probe = attention_pair(dropout=0.3)
        fused.eval(), composite.eval()
        before = fused.dropout._rng.bit_generator.state
        got = attention_backward(nn.MultiHeadSelfAttention.forward, fused, x, probe, PADDING["ragged"])
        self.assert_same(got, attention_backward(attention_forward_composite, composite, x, probe, PADDING["ragged"]))
        assert fused.dropout._rng.bit_generator.state == before
        undropped = attention_pair(dropout=0.0)[0][0]
        np.testing.assert_array_equal(got[0].data, undropped(Tensor(x), PADDING["ragged"]).data)

    def test_query_not_requiring_grad(self):
        """A frozen query projection on constant input: ``q`` is dead, the node skips its gradient."""
        (fused, composite), x, probe = attention_pair()
        for module in (fused, composite):
            for param in module.query.parameters():
                param.requires_grad = False
        got = attention_backward(nn.MultiHeadSelfAttention.forward, fused, x, probe, None, input_requires_grad=False)
        reference = attention_backward(attention_forward_composite, composite, x, probe, None, input_requires_grad=False)
        assert got[1] is None and reference[1] is None
        assert got[2]["query.weight"] is None and got[2]["key.weight"] is not None
        for name, grad in got[2].items():
            if grad is not None:
                np.testing.assert_allclose(grad, reference[2][name], err_msg=name, **self.TOL)
        node = next(n for n in graph_nodes(got[0]) if isinstance(n, F.AttentionFunction))
        assert node.needs_input_grad == (False, True, True)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_forward_records_no_elementwise_node(self, dropout):
        """Four ``LinearFunction``s, the attention node, and the head split / merge reshapes; nothing else."""
        (module, _), x, _ = attention_pair(dropout=dropout)
        out = module(Tensor(x, requires_grad=True), PADDING["ragged"])
        kinds = sorted(type(node).__name__ for node in graph_nodes(out))
        # q, k, v: reshape + transpose each; context: transpose + reshape.
        assert kinds == sorted(
            ["LinearFunction"] * 4 + ["AttentionFunction"] + ["Reshape"] * 4 + ["Transpose"] * 4
        )
        elementwise = (tape.Mul, tape.Add, tape.Sub, tape.Div, tape.Exp, tape.Max, tape.Sum, tape.MatMul)
        assert not any(isinstance(node, elementwise) for node in graph_nodes(out))

    def test_backward_hooks_on_the_projections_fire_once_in_reverse_order(self):
        (module, _), x, probe = attention_pair()
        order = []
        for name in ("query", "key", "value", "out"):
            getattr(module, name).register_full_backward_hook(lambda m, gi, go, name=name: order.append(name))
        loss = (module(Tensor(x, requires_grad=True), PADDING["ragged"]) * Tensor(probe)).sum()
        loss.backward()
        # The output projection first, then the three sibling projections in the order the composite tape ran them.
        assert order == ["out", "query", "key", "value"]
        loss.backward()
        assert order == ["out", "query", "key", "value"] * 2


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = RNG.standard_normal((4, 5)).astype(np.float32)
        targets = np.array([0, 1, 2, 3])
        loss = nn.CrossEntropyLoss()(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_cross_entropy_label_smoothing_increases_loss_on_confident_predictions(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32)
        targets = np.array([0, 1])
        plain = nn.CrossEntropyLoss()(Tensor(logits), targets).item()
        smoothed = nn.CrossEntropyLoss(label_smoothing=0.1)(Tensor(logits), targets).item()
        assert smoothed > plain

    def test_masked_lm_loss_ignores_unmasked(self):
        logits = RNG.standard_normal((2, 4, 7)).astype(np.float32)
        labels = np.full((2, 4), -100)
        labels[0, 1] = 3
        loss = nn.MaskedLMCrossEntropyLoss()(Tensor(logits), labels).item()
        full_ce = nn.CrossEntropyLoss()(Tensor(logits[0, 1:2]), np.array([3])).item()
        assert loss == pytest.approx(full_ce, rel=1e-5)

    def test_bce_with_logits_matches_formula(self):
        logits = np.array([[2.0, -1.0]], dtype=np.float32)
        targets = np.array([[1.0, 0.0]], dtype=np.float32)
        loss = nn.BCEWithLogitsLoss()(Tensor(logits), targets).item()
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_bce_stable_for_large_logits(self):
        logits = np.array([[100.0, -100.0]], dtype=np.float32)
        targets = np.array([[1.0, 0.0]], dtype=np.float32)
        loss = nn.BCEWithLogitsLoss()(Tensor(logits), targets).item()
        assert np.isfinite(loss) and loss < 1e-3

    def test_mse(self):
        loss = nn.MSELoss()(Tensor([1.0, 3.0]), np.array([1.0, 1.0], dtype=np.float32)).item()
        assert loss == pytest.approx(2.0)

    def test_dice_loss_perfect_prediction_near_zero(self):
        target = np.zeros((1, 1, 8, 8), dtype=np.float32)
        target[0, 0, 2:6, 2:6] = 1.0
        logits = (target * 2 - 1) * 20.0  # saturated sigmoid
        loss = nn.DiceLoss()(Tensor(logits), target).item()
        assert loss < 0.01

    def test_dice_coefficient_metric(self):
        target = np.zeros((1, 1, 4, 4))
        target[0, 0, :2, :2] = 1
        probs = target.copy()
        assert nn.dice_coefficient(probs, target) == pytest.approx(1.0, abs=0.1)
        assert nn.dice_coefficient(1 - probs, target) < 0.3
