"""Tests for per-layer K-FAC handlers: factor capture, accumulation and gradient round-trips."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.kfac import layers as kfac_layers
from repro.kfac.layers import KFACConv2dLayer, KFACLinearLayer, make_kfac_layer
from repro.nn import functional as F
from repro.tensor import PrecisionPolicy, Tensor, no_grad

RNG = np.random.default_rng(21)


def make_linear_handler(in_features=4, out_features=3, bias=True, precision=None, accumulate=True, scale=1.0):
    layer = nn.Linear(in_features, out_features, bias=bias, rng=np.random.default_rng(0))
    handler = make_kfac_layer(
        "linear",
        layer,
        precision or PrecisionPolicy.fp32(),
        should_accumulate=lambda: accumulate,
        grad_scale=lambda: scale,
    )
    return layer, handler


def make_conv_handler(in_channels=2, out_channels=3, kernel=3, bias=True, accumulate=True):
    layer = nn.Conv2d(in_channels, out_channels, kernel, padding=1, bias=bias, rng=np.random.default_rng(0))
    handler = make_kfac_layer(
        "conv",
        layer,
        PrecisionPolicy.fp32(),
        should_accumulate=lambda: accumulate,
        grad_scale=lambda: 1.0,
    )
    return layer, handler


def run_forward_backward(layer, x):
    out = layer(x)
    out.sum().backward()
    return out


class TestHandlerCreation:
    def test_linear_handler_type_and_dims(self):
        _, handler = make_linear_handler(5, 7)
        assert isinstance(handler, KFACLinearLayer)
        assert handler.a_dim == 6  # bias column folded in
        assert handler.g_dim == 7

    def test_linear_without_bias_dims(self):
        _, handler = make_linear_handler(5, 7, bias=False)
        assert handler.a_dim == 5

    def test_conv_handler_dims(self):
        _, handler = make_conv_handler(2, 4, 3)
        assert isinstance(handler, KFACConv2dLayer)
        assert handler.a_dim == 2 * 9 + 1
        assert handler.g_dim == 4

    def test_unsupported_module_returns_none(self):
        # Affine BatchNorm2d is supported now; a norm without parameters is not.
        bn = nn.BatchNorm2d(4, affine=False)
        assert make_kfac_layer("bn", bn, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0) is None

    def test_shape_info(self):
        _, handler = make_linear_handler(5, 7)
        info = handler.shape_info()
        assert info.a_dim == 6 and info.g_dim == 7 and info.grad_numel == 42


class TestFactorAccumulation:
    def test_linear_factors_match_manual_computation(self):
        layer, handler = make_linear_handler(4, 3)
        x = RNG.standard_normal((8, 4)).astype(np.float32)
        loss = layer(Tensor(x)).mean()
        loss.backward()
        a_new, g_new = handler.compute_batch_factors()
        a_rows = np.concatenate([x, np.ones((8, 1), dtype=np.float32)], axis=1)
        np.testing.assert_allclose(a_new, a_rows.T @ a_rows / 8, rtol=1e-4)
        assert g_new.shape == (3, 3)
        assert np.all(np.linalg.eigvalsh(g_new.astype(np.float64)) >= -1e-6)

    def test_no_accumulation_when_disabled(self):
        layer, handler = make_linear_handler(accumulate=False)
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        assert not handler.has_accumulated_data

    def test_no_accumulation_in_eval_mode(self):
        layer, handler = make_linear_handler()
        layer.eval()
        with no_grad():
            layer(Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        assert not handler.has_accumulated_data

    def test_accumulation_over_multiple_microbatches(self):
        """Gradient accumulation (section 4.2): statistics pool across micro-batches."""
        layer, handler = make_linear_handler()
        x1 = RNG.standard_normal((4, 4)).astype(np.float32)
        x2 = RNG.standard_normal((6, 4)).astype(np.float32)
        run_forward_backward(layer, Tensor(x1))
        run_forward_backward(layer, Tensor(x2))
        a_new, _ = handler.compute_batch_factors()
        both = np.concatenate([x1, x2])
        rows = np.concatenate([both, np.ones((10, 1), dtype=np.float32)], axis=1)
        np.testing.assert_allclose(a_new, rows.T @ rows / 10, rtol=1e-4)

    def test_compute_batch_factors_resets_accumulators(self):
        layer, handler = make_linear_handler()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        handler.compute_batch_factors()
        assert not handler.has_accumulated_data

    def test_compute_without_data_raises(self):
        _, handler = make_linear_handler()
        with pytest.raises(RuntimeError):
            handler.compute_batch_factors()

    def test_conv_factor_shapes_and_spd(self):
        layer, handler = make_conv_handler()
        run_forward_backward(layer, Tensor(RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)))
        a_new, g_new = handler.compute_batch_factors()
        assert a_new.shape == (19, 19)
        assert g_new.shape == (3, 3)
        assert np.all(np.linalg.eigvalsh(a_new.astype(np.float64)) >= -1e-5)

    def test_conv_a_factor_uses_im2col_patches(self):
        layer, handler = make_conv_handler(bias=False)
        x = RNG.standard_normal((1, 2, 5, 5)).astype(np.float32)
        run_forward_backward(layer, Tensor(x))
        a_new, _ = handler.compute_batch_factors()
        cols, _, _ = F.im2col(x, layer.kernel_size, layer.stride, layer.padding)
        rows = cols.transpose(0, 2, 1).reshape(-1, cols.shape[1])
        np.testing.assert_allclose(a_new, rows.T @ rows / rows.shape[0], rtol=1e-4)

    def test_grad_scale_unscales_g_factor(self):
        """AMP integration (section 4.1): G statistics are divided by the loss scale."""
        layer_scaled, handler_scaled = make_linear_handler(scale=128.0)
        layer_plain, handler_plain = make_linear_handler(scale=1.0)
        layer_scaled.load_state_dict(layer_plain.state_dict())
        x = RNG.standard_normal((4, 4)).astype(np.float32)
        (layer_plain(Tensor(x)).mean()).backward()
        (layer_scaled(Tensor(x)).mean() * 128.0).backward()
        _, g_plain = handler_plain.compute_batch_factors()
        _, g_scaled = handler_scaled.compute_batch_factors()
        np.testing.assert_allclose(g_scaled, g_plain, rtol=1e-4)


class TestRunningAverages:
    def test_first_update_sets_factor(self):
        layer, handler = make_linear_handler()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        a_new, g_new = handler.compute_batch_factors()
        handler.update_factors(a_new, g_new, factor_decay=0.95)
        np.testing.assert_allclose(handler.factor_a, a_new, rtol=1e-5)

    def test_running_average_formula(self):
        layer, handler = make_linear_handler()
        ones = np.eye(5, dtype=np.float32)
        twos = 2 * np.eye(5, dtype=np.float32)
        gid = np.eye(3, dtype=np.float32)
        handler.update_factors(ones, gid, factor_decay=0.9)
        handler.update_factors(twos, gid, factor_decay=0.9)
        np.testing.assert_allclose(handler.factor_a, 0.9 * ones + 0.1 * twos, rtol=1e-5)

    def test_fp16_storage(self):
        layer, handler = make_linear_handler(precision=PrecisionPolicy.amp())
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        a_new, g_new = handler.compute_batch_factors()
        handler.update_factors(a_new, g_new, factor_decay=0.95)
        assert handler.factor_a.dtype == np.float16
        handler.compute_eigen(damping=0.01)
        assert handler.eigen_a.eigenvectors.dtype == np.float16

    def test_factor_bytes_accounting(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        handler.update_factors(*handler.compute_batch_factors(), factor_decay=0.95)
        assert handler.factor_bytes() == (5 * 5 + 3 * 3) * 4
        assert handler.expected_factor_bytes() == handler.factor_bytes()

    def test_expected_eigen_bytes_matches_actual(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        handler.update_factors(*handler.compute_batch_factors(), factor_decay=0.95)
        handler.compute_eigen(damping=0.01)
        assert handler.eigen_bytes() == handler.expected_eigen_bytes()


class TestGradientRoundTrip:
    def test_linear_get_set_roundtrip(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        grad = handler.get_gradient()
        assert grad.shape == (3, 5)
        np.testing.assert_allclose(grad[:, :4], layer.weight.grad, rtol=1e-6)
        np.testing.assert_allclose(grad[:, 4], layer.bias.grad, rtol=1e-6)
        handler.set_gradient(grad * 2)
        np.testing.assert_allclose(layer.weight.grad, 2 * grad[:, :4], rtol=1e-6)

    def test_conv_get_set_roundtrip(self):
        layer, handler = make_conv_handler(2, 3, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)))
        grad = handler.get_gradient()
        assert grad.shape == (3, 19)
        original_weight_grad = layer.weight.grad.copy()
        handler.set_gradient(grad)
        np.testing.assert_allclose(layer.weight.grad, original_weight_grad, rtol=1e-6)

    def test_get_gradient_without_backward_raises(self):
        _, handler = make_linear_handler()
        with pytest.raises(RuntimeError):
            handler.get_gradient()

    def test_precondition_requires_eigen(self):
        layer, handler = make_linear_handler()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        with pytest.raises(RuntimeError):
            handler.precondition(damping=0.01)

    def test_precondition_after_eigen(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((16, 4)).astype(np.float32)))
        handler.update_factors(*handler.compute_batch_factors(), factor_decay=0.95)
        handler.compute_eigen(damping=0.01)
        preconditioned = handler.precondition(damping=0.01)
        assert preconditioned.shape == (3, 5)
        assert np.all(np.isfinite(preconditioned))

    def test_clear_eigen_releases_state(self):
        layer, handler = make_linear_handler()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        handler.update_factors(*handler.compute_batch_factors(), factor_decay=0.95)
        handler.compute_eigen(damping=0.01)
        assert handler.has_eigen
        handler.clear_eigen()
        assert not handler.has_eigen
        assert handler.eigen_bytes() == 0

    def test_remove_detaches_hook(self):
        layer, handler = make_linear_handler()
        handler.remove()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        assert not handler.has_accumulated_data


class TestForwardNodeReuse:
    """Conv2d / BatchNorm2d handlers read what the forward call's autograd node already built."""

    @staticmethod
    def make(kind):
        if kind == "conv":
            module = nn.Conv2d(2, 3, 3, stride=2, padding=1, bias=True, rng=np.random.default_rng(0))
        else:
            module = nn.BatchNorm2d(2)
        handler = make_kfac_layer("layer", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        return module, handler

    @staticmethod
    def forbid_recompute(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("handler recomputed what the forward node holds")

        monkeypatch.setattr(kfac_layers, "conv_patch_matrix", fail)
        monkeypatch.setattr(kfac_layers, "batch_normalize", fail)

    def test_conv_a_from_captured_columns_matches_im2col_brute_force(self, monkeypatch):
        """Bias, stride 2 and two accumulated micro-batches."""
        self.forbid_recompute(monkeypatch)
        layer, handler = self.make("conv")
        batches = [RNG.standard_normal((n, 2, 7, 6)).astype(np.float32) for n in (2, 3)]
        rows = []
        for x in batches:
            run_forward_backward(layer, Tensor(x))
            cols, _, _ = F.im2col(x, layer.kernel_size, layer.stride, layer.padding)
            patches = cols.transpose(0, 2, 1).reshape(-1, cols.shape[1])
            rows.append(np.concatenate([patches, np.ones((patches.shape[0], 1), dtype=np.float32)], axis=1))
        a_new, _ = handler.compute_batch_factors()
        rows = np.concatenate(rows)
        np.testing.assert_allclose(a_new, rows.T @ rows / rows.shape[0], rtol=1e-4)

    @pytest.mark.parametrize("kind", ["conv", "bn"])
    def test_eval_forward_under_no_grad_neither_accumulates_nor_fails(self, kind):
        layer, handler = self.make(kind)
        layer.eval()
        with no_grad():
            out = layer(Tensor(RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)))
        assert out._ctx is None and not handler.has_accumulated_data and handler._a_accum is None

    @pytest.mark.parametrize("kind", ["conv", "bn"])
    def test_training_forward_without_a_graph_falls_back_to_the_shared_kernel(self, kind):
        """No node to read from (``no_grad``): same statistics, from the kernel the node itself calls."""
        x = RNG.standard_normal((3, 2, 6, 6)).astype(np.float32)
        layer, handler = self.make(kind)
        layer(Tensor(x))
        captured = handler._a_accum.copy()
        handler.reset_accumulators()
        with no_grad():
            assert layer(Tensor(x))._ctx is None
        np.testing.assert_array_equal(handler._a_accum, captured)
        assert handler._a_count == (3 * 3 * 3 if kind == "conv" else 3 * 2 * 6 * 6)

    @pytest.mark.parametrize("kind,attr", [("conv", "cols"), ("bn", "x_hat")])
    def test_node_buffer_dies_with_the_graph(self, kind, attr):
        """Neither the module nor the handler keeps the patch matrix / x-hat alive."""
        layer, handler = self.make(kind)
        loss = layer(Tensor(RNG.standard_normal((2, 2, 6, 6)).astype(np.float32))).sum()
        buffer = weakref.ref(getattr(loss._ctx.parents[0]._ctx, attr))
        loss.backward()
        assert buffer() is not None and handler._a_accum is not None
        del loss
        gc.collect()
        assert buffer() is None
