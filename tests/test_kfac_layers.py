"""Tests for per-layer K-FAC handlers: factor capture, accumulation and gradient round-trips."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.kfac import KFAC, FactorRepr
from repro.kfac import layers as kfac_layers
from repro.kfac.layers import KFACConv2dLayer, KFACLinearLayer, make_kfac_layer
from repro.kfac import EigenSolveStrategy, WirePolicy
from repro.nn import functional as F
from repro.optim import GradScaler
from repro.tensor import PrecisionPolicy, Tensor, no_grad

from kernel_oracle import decompose_standalone, force_dense, kfac_class

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


def window_matrices(handler):
    """``compute_batch_factors()`` expanded to the ``(A, G)`` matrices the stored windows stand for."""
    a_new, g_new = handler.compute_batch_factors()
    return handler.a_repr.to_dense(a_new), handler.g_repr.to_dense(g_new)


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
        assert [part.shape for part in handler.accumulators()] == [(15,), (6,)]  # one triangle of 5x5 and of 3x3
        a_new, g_new = window_matrices(handler)
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
        a_new, _ = window_matrices(handler)
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
        a_new, g_new = window_matrices(handler)
        assert a_new.shape == (19, 19)
        assert g_new.shape == (3, 3)
        assert np.all(np.linalg.eigvalsh(a_new.astype(np.float64)) >= -1e-5)

    def test_conv_a_factor_uses_im2col_patches(self):
        layer, handler = make_conv_handler(bias=False)
        x = RNG.standard_normal((1, 2, 5, 5)).astype(np.float32)
        run_forward_backward(layer, Tensor(x))
        a_new, _ = window_matrices(handler)
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


def fold_window(handler, a_new, g_new, factor_decay):
    """Fold one (A, G) window pair the way the factor stage does on a rank holding both."""
    handler.fold_factor("a", a_new, factor_decay)
    handler.fold_factor("g", g_new, factor_decay)


class TestRunningAverages:
    def test_first_update_sets_factor(self):
        layer, handler = make_linear_handler()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        a_new, g_new = handler.compute_batch_factors()
        fold_window(handler, a_new, g_new, factor_decay=0.95)
        np.testing.assert_allclose(handler.factor_a, a_new, rtol=1e-5)

    def test_running_average_formula(self):
        layer, handler = make_linear_handler()
        ones = np.eye(5, dtype=np.float32)
        twos = 2 * np.eye(5, dtype=np.float32)
        gid = np.eye(3, dtype=np.float32)
        # fold_factor consumes its window (the fold scales it in place), so hand over copies.
        fold_window(handler, ones.copy(), gid.copy(), factor_decay=0.9)
        fold_window(handler, twos.copy(), gid.copy(), factor_decay=0.9)
        np.testing.assert_allclose(handler.factor_a, 0.9 * ones + 0.1 * twos, rtol=1e-5)
        np.testing.assert_allclose(handler.factor_g, gid, rtol=1e-6)

    def test_fold_factor_touches_one_factor_and_adopts_a_copy(self):
        """A rank that holds only A folds only A; the first window is copied, not kept as a
        view of the (bucket) buffer it arrived in."""
        _, handler = make_linear_handler()
        bucket = np.arange(50, dtype=np.float32)
        handler.fold_factor("a", bucket[:25].reshape(5, 5), factor_decay=0.9)
        assert handler.factor_g is None and handler.factor_bytes() == 25 * 4
        assert not np.shares_memory(handler.factor_a, bucket)
        first = handler.factor_a.copy()
        handler.fold_factor("a", bucket[25:].reshape(5, 5), factor_decay=0.9)
        np.testing.assert_allclose(handler.factor_a, 0.9 * first + 0.1 * np.arange(25, 50).reshape(5, 5), rtol=1e-6)

    def test_fp16_storage(self):
        layer, handler = make_linear_handler(precision=PrecisionPolicy.amp())
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        a_new, g_new = handler.compute_batch_factors()
        fold_window(handler, a_new, g_new, factor_decay=0.95)
        assert handler.factor_a.dtype == np.float16
        assert decompose_standalone(handler, damping=0.01).eigen_a.eigenvectors.dtype == np.float16

    def test_factor_bytes_accounting(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        fold_window(handler, *handler.compute_batch_factors(), factor_decay=0.95)
        assert handler.factor_bytes() == (5 * 6 // 2 + 3 * 4 // 2) * 4  # each symmetric factor stored once
        policy = WirePolicy(handler.precision)  # the one formula the plan, the models and the reports use
        assert policy.factor_bytes(handler.shape_info()) == handler.factor_bytes()

    def test_expected_eigen_bytes_matches_actual(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        fold_window(handler, *handler.compute_batch_factors(), factor_decay=0.95)
        held = decompose_standalone(handler, damping=0.01).held_bytes()
        assert held == EigenSolveStrategy.state_bytes([handler.shape_info()], WirePolicy(handler.precision))


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
        with pytest.raises(RuntimeError, match="no eigen decompositions"):
            EigenSolveStrategy().solve(handler, handler.get_gradient(), damping=0.01)

    def test_precondition_after_eigen(self):
        layer, handler = make_linear_handler(4, 3)
        run_forward_backward(layer, Tensor(RNG.standard_normal((16, 4)).astype(np.float32)))
        fold_window(handler, *handler.compute_batch_factors(), factor_decay=0.95)
        preconditioned = decompose_standalone(handler, damping=0.01).solve(handler, handler.get_gradient(), 0.01)
        assert preconditioned.shape == (3, 5)
        assert np.all(np.isfinite(preconditioned))

    def test_remove_detaches_hook(self):
        layer, handler = make_linear_handler()
        handler.remove()
        run_forward_backward(layer, Tensor(RNG.standard_normal((4, 4)).astype(np.float32)))
        assert not handler.has_accumulated_data


#: Per layer kind: the input shape its module takes, the node attribute its handler reads,
#: and how many activation rows one sample of that input contributes to A.
NODE_KINDS = {
    "conv": ((2, 6, 6), "cols", 3 * 3),
    "bn": ((2, 6, 6), "x_hat", 2 * 6 * 6),
    "linear": ((5, 4), "x2", 5),
    "ln": ((5, 4), "x_hat", 5 * 4),
}


class TestForwardNodeReuse:
    """Handlers read what the forward call's autograd node already built."""

    @staticmethod
    def make(kind):
        if kind == "conv":
            module = nn.Conv2d(2, 3, 3, stride=2, padding=1, bias=True, rng=np.random.default_rng(0))
        elif kind == "bn":
            module = nn.BatchNorm2d(2)
        elif kind == "linear":
            module = nn.Linear(4, 3, rng=np.random.default_rng(0))
        else:
            module = nn.LayerNorm(4)
        handler = make_kfac_layer("layer", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        return module, handler

    @staticmethod
    def batch(kind, n=3):
        return RNG.standard_normal((n,) + NODE_KINDS[kind][0]).astype(np.float32)

    @staticmethod
    def forbid_recompute(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("handler recomputed what the forward node holds")

        monkeypatch.setattr(kfac_layers, "conv_patch_matrix", fail)
        monkeypatch.setattr(kfac_layers, "batch_normalize", fail)
        monkeypatch.setattr(kfac_layers, "layer_normalize", fail)

    @pytest.mark.parametrize("kind", list(NODE_KINDS))
    def test_a_statistics_come_from_the_node_not_from_the_hook_input(self, kind, monkeypatch):
        """Hand the handler garbage as the module input: with a graph recorded it never looks at it."""
        self.forbid_recompute(monkeypatch)
        layer, handler = self.make(kind)
        x = self.batch(kind)
        out = layer(Tensor(x))
        expected, count = handler.accumulators()[0].copy(), handler._a_count
        handler.reset_accumulators()
        handler._accumulate_a(np.full_like(x, np.nan), out)
        np.testing.assert_array_equal(handler.accumulators()[0], expected)
        assert handler._a_count == count == 3 * NODE_KINDS[kind][2]

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
        a_new, _ = window_matrices(handler)
        rows = np.concatenate(rows)
        np.testing.assert_allclose(a_new, rows.T @ rows / rows.shape[0], rtol=1e-4)

    @pytest.mark.parametrize("kind", list(NODE_KINDS))
    def test_eval_forward_under_no_grad_neither_accumulates_nor_fails(self, kind):
        layer, handler = self.make(kind)
        layer.eval()
        with no_grad():
            out = layer(Tensor(self.batch(kind, 2)))
        assert out._ctx is None and not handler.has_accumulated_data and handler.accumulators()[0] is None

    @pytest.mark.parametrize("kind", list(NODE_KINDS))
    def test_training_forward_without_a_graph_falls_back_to_the_shared_kernel(self, kind):
        """No node to read from (``no_grad``): same statistics, from the kernel the node itself calls."""
        x = self.batch(kind)
        layer, handler = self.make(kind)
        layer(Tensor(x))
        captured = handler.accumulators()[0].copy()
        handler.reset_accumulators()
        with no_grad():
            assert layer(Tensor(x))._ctx is None
        np.testing.assert_array_equal(handler.accumulators()[0], captured)
        assert handler._a_count == 3 * NODE_KINDS[kind][2]

    @pytest.mark.parametrize("kind,attr", [(kind, spec[1]) for kind, spec in NODE_KINDS.items()])
    def test_node_buffer_dies_with_the_graph(self, kind, attr):
        """Neither the module nor the handler keeps the patch matrix / activation / x-hat alive."""
        layer, handler = self.make(kind)
        # A fresh array per call, so for Linear (whose node holds a view of its input) the buffer is the graph's.
        loss = layer(Tensor(self.batch(kind, 2) + 1.0, requires_grad=True)).sum()
        held = getattr(loss._ctx.parents[0]._ctx, attr)
        buffer = weakref.ref(held if held.base is None else held.base)
        del held
        loss.backward()
        assert buffer() is not None and handler.accumulators()[0] is not None
        del loss
        gc.collect()
        assert buffer() is None


# ------------------------------------------------------------------------------ statistics
def concat_gemm_a(activations, bias=True):
    """The oracle's A statistic: append a column of ones to the rows, one float64 GEMM, divide by the count."""
    rows = np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1, a.shape[-1]) for a in activations])
    if bias:
        rows = np.concatenate([rows, np.ones((rows.shape[0], 1))], axis=1)
    return rows.T @ rows / rows.shape[0]


def scaled_gemm_g(grads):
    """The oracle's G statistic: every micro-batch's rows scaled by its own row count, then one GEMM."""
    rows = np.concatenate([np.asarray(g, dtype=np.float64).reshape(-1, g.shape[-1]) * (g.size // g.shape[-1]) for g in grads])
    return rows.T @ rows / rows.shape[0]


def layer_norm_rows(x, eps):
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=-1, keepdims=True)
    return (centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps)).reshape(-1, 1)


def batch_norm_rows(x, eps):
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=(0, 2, 3), keepdims=True)
    return (centered / np.sqrt((centered**2).mean(axis=(0, 2, 3), keepdims=True) + eps)).reshape(-1, 1)


def make_handler(module, scale=1.0, dense_factors=False, precision=None):
    handler = make_kfac_layer("layer", module, precision or PrecisionPolicy.fp32(), lambda: True, lambda: scale)
    return force_dense(handler) if dense_factors else handler


def capture_output_grads(module):
    grads = []
    module.register_full_backward_hook(lambda m, gi, go: grads.append(go[0].copy()))
    return grads


class TestNodeStatistics:
    """Factor statistics read from the node equal the concat-and-GEMM oracle, and are exactly symmetric."""

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("leading", [(8,), (3, 5), (2, 3, 4)])
    def test_linear_factors_match_the_oracle_over_two_micro_batches(self, leading, bias):
        layer = nn.Linear(6, 4, bias=bias, rng=np.random.default_rng(0))
        handler = make_handler(layer)
        grads = capture_output_grads(layer)
        batches = [RNG.standard_normal(leading + (6,)).astype(np.float32), RNG.standard_normal((7,) + leading[1:] + (6,)).astype(np.float32)]
        for x in batches:  # two micro-batches of different sizes
            (layer(Tensor(x)) ** 2).mean().backward()
        a_new, g_new = window_matrices(handler)
        assert a_new.dtype == g_new.dtype == np.float32
        np.testing.assert_allclose(a_new, concat_gemm_a(batches, bias), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(g_new, scaled_gemm_g(grads), rtol=1e-4, atol=1e-9)

    def test_linear_bias_coordinate_is_the_column_sums_and_the_count(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        handler = make_handler(layer)
        x = RNG.standard_normal((4, 6, 5)).astype(np.float32)
        layer(Tensor(x))
        rows = x.reshape(-1, 5)
        accum = handler.a_repr.to_dense(handler.accumulators()[0])
        np.testing.assert_array_equal(accum[5, :5], rows.sum(axis=0))
        np.testing.assert_array_equal(accum[:5, 5], rows.sum(axis=0))
        assert accum[5, 5] == 24 and handler._a_count == 24

    def test_linear_float16_activation_is_cast_once_and_matches(self):
        layer = nn.Linear(6, 4, rng=np.random.default_rng(0))
        handler = make_handler(layer)
        x = RNG.standard_normal((3, 5, 6)).astype(np.float16)
        layer(Tensor(x))
        a_new = handler.a_repr.to_dense(handler.accumulators()[0] / handler._a_count)
        assert a_new.dtype == np.float32
        np.testing.assert_allclose(a_new, concat_gemm_a([x]), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kind", ["ln", "bn"])
    def test_norm_factors_match_the_oracle_over_two_micro_batches(self, kind):
        if kind == "ln":
            layer, shapes, normalize = nn.LayerNorm(6), [(3, 5, 6), (4, 5, 6)], layer_norm_rows
        else:
            layer, shapes, normalize = nn.BatchNorm2d(6), [(3, 6, 4, 2), (5, 6, 4, 2)], batch_norm_rows
        layer.weight.data = RNG.uniform(0.5, 1.5, 6).astype(np.float32)
        handler = make_handler(layer)
        grads = capture_output_grads(layer)
        batches = [(RNG.standard_normal(shape) * 2.0 + 0.3).astype(np.float32) for shape in shapes]
        for x in batches:
            (layer(Tensor(x)) ** 2).mean().backward()
        a_new, g_new = handler.compute_batch_factors()
        assert a_new.shape == (3,)  # the triangle of the 2x2: [Σx̂², Σx̂, count] / count
        a_new = handler.a_repr.to_dense(a_new)
        x_hat = [normalize(x, layer.eps) for x in batches]
        np.testing.assert_allclose(a_new, concat_gemm_a(x_hat), rtol=1e-5, atol=1e-6)
        assert a_new[1, 1] == 1.0  # count / count
        if kind == "bn":  # (N, C, H, W) -> one row per (sample, location), scaled by the batch size N
            grads = [g.transpose(0, 2, 3, 1).reshape(-1, 6) * (g.shape[0] / (g.size // 6)) for g in grads]
        assert g_new.shape == (6,)  # stored as its diagonal
        np.testing.assert_allclose(g_new, np.diag(scaled_gemm_g(grads)), rtol=1e-4)

    @pytest.mark.parametrize("kind", ["linear", "ln", "bn"])
    def test_grad_scaler_scale_is_divided_out_of_g(self, kind):
        """AMP (section 4.1): a loss scale != 1 leaves the G statistic where scale 1 puts it."""

        def run(scale):
            if kind == "linear":
                layer, shape = nn.Linear(6, 4, rng=np.random.default_rng(0)), (3, 5, 6)
            elif kind == "ln":
                layer, shape = nn.LayerNorm(6), (3, 5, 6)
            else:
                layer, shape = nn.BatchNorm2d(6), (3, 6, 4, 2)
            scaler = GradScaler(init_scale=scale)
            handler = make_handler(layer, scale=scaler.get_scale())
            x = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
            scaler.scale((layer(Tensor(x)) ** 2).mean()).backward()
            return handler.compute_batch_factors()

        (a_plain, g_plain), (a_scaled, g_scaled) = run(1.0), run(1024.0)
        np.testing.assert_array_equal(a_scaled, a_plain)
        np.testing.assert_allclose(g_scaled, g_plain, rtol=1e-5)

    def test_dense_factors_store_the_same_statistics_densely(self):
        """The forced-dense oracle: LayerNorm's G as a dense matrix holding the packed diagonal, A identical."""
        x = RNG.standard_normal((3, 5, 6)).astype(np.float32)
        results = {}
        for dense in (False, True):
            layer = nn.LayerNorm(6)
            handler = make_handler(layer, dense_factors=dense)
            (layer(Tensor(x)) ** 2).mean().backward()
            results[dense] = handler.compute_batch_factors()
        (a_packed, g_packed), (a_dense, g_dense) = results[False], results[True]
        np.testing.assert_array_equal(a_dense, a_packed)
        assert g_packed.shape == (6,) and g_dense.shape == (21,)  # the triangle of a 6x6 holding that diagonal
        np.testing.assert_array_equal(FactorRepr.dense(6).to_dense(g_dense), np.diag(g_packed))

    def test_dense_factors_preconditioner_matches_structured_on_linear_and_layernorm(self):
        """End to end through KFAC: node-read statistics, both storage modes, identical gradients."""

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.fc1, self.norm, self.fc2 = nn.Linear(6, 8, rng=rng), nn.LayerNorm(8), nn.Linear(8, 3, bias=False, rng=rng)

            def forward(self, x):
                return self.fc2(self.norm(self.fc1(x)).relu())

        x = RNG.standard_normal((4, 5, 6)).astype(np.float32)
        grads = {}
        for dense in (False, True):
            net = Net()
            pre = kfac_class(dense)(net, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")
            for _ in range(2):
                net.zero_grad()
                (net(Tensor(x)) ** 2).mean().backward()
                pre.step()
            grads[dense] = np.concatenate([p.grad.ravel() for p in net.parameters()])
        np.testing.assert_array_equal(grads[True], grads[False])

    def test_compute_batch_factors_averages_in_place(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        handler = make_handler(layer)
        (layer(Tensor(RNG.standard_normal((8, 4)).astype(np.float32))) ** 2).mean().backward()
        a_accum, g_accum = handler.accumulators()
        a_new, g_new = handler.compute_batch_factors()
        assert a_new is a_accum and g_new is g_accum  # handed over, not copied
        assert not handler.has_accumulated_data
