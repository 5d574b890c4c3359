"""The fused autograd nodes (Conv2d, BatchNorm2d, Linear, LayerNorm, GELU, softmax, attention, masked-LM loss)
against the composites they replaced."""

import numpy as np
import pytest

from composite_oracle import (
    attention_composite,
    batchnorm2d_composite,
    conv2d_composite,
    gelu_composite,
    layernorm_composite,
    linear_composite,
    masked_lm_loss_composite,
    softmax_composite,
)
from gradcheck import check_gradient, graph_nodes, numerical_gradient
from repro import nn
from repro.nn import functional as F
from repro.tensor import Tensor, no_grad

KERNELS = [1, 3, (2, 3)]
STRIDES = [1, 2]
PADDINGS = [0, 1, 2]


def pair(kernel):
    return kernel if isinstance(kernel, tuple) else (kernel, kernel)


def conv_problem(kernel, bias, seed=0):
    """Float64 input, weight, bias of a small conv (2 -> 3 channels on 5x6 images)."""
    rng = np.random.default_rng(seed)
    kh, kw = pair(kernel)
    x = rng.standard_normal((2, 2, 5, 6))
    weight = rng.standard_normal((3, 2, kh, kw))
    return x, weight, (rng.standard_normal(3) if bias else None)


def tensors(arrays, dtype, requires_grad=True):
    return [None if a is None else Tensor(a.astype(dtype), requires_grad=requires_grad) for a in arrays]


def backward_through(conv_fn, arrays, dtype, stride, padding, probe=None):
    """Output and parent gradients of ``sum(conv * probe)`` (a loss linear in every parent)."""
    parents = tensors(arrays, dtype)
    out = conv_fn(*parents, stride, padding)
    if probe is None:
        probe = np.random.default_rng(1).standard_normal(out.shape)
    (out * Tensor(probe.astype(dtype))).sum().backward()
    return out.data, [None if p is None else p.grad for p in parents], probe


class TestConv2dNode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("stride", STRIDES)
    def test_gradcheck(self, stride, padding, bias, kernel, dtype):
        arrays = conv_problem(kernel, bias)
        _, grads, probe = backward_through(F.conv2d, arrays, dtype, stride, padding)
        # The loss is linear in each parent, so central differences are exact up to rounding.
        tol = 1e-9 if dtype is np.float64 else 2e-4
        for index, (array, grad) in enumerate(zip(arrays, grads)):
            if array is None:
                continue

            def loss(values, index=index):
                trial = list(arrays)
                trial[index] = values
                out = F.conv2d(*tensors(trial, np.float64, requires_grad=False), stride, padding)
                return float((out.data * probe).sum())

            numeric = numerical_gradient(loss, array, eps=1e-3)
            assert grad.dtype == dtype
            np.testing.assert_allclose(grad, numeric, rtol=tol, atol=tol * np.abs(numeric).max())

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("stride", STRIDES)
    def test_fp64_parity_with_composite(self, stride, padding, bias, kernel):
        arrays = conv_problem(kernel, bias, seed=3)
        out, grads, _ = backward_through(F.conv2d, arrays, np.float64, stride, padding)
        ref_out, ref_grads, _ = backward_through(conv2d_composite, arrays, np.float64, stride, padding)
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            if ref is not None:
                np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)

    def test_output_is_contiguous_nchw(self):
        x, weight, bias = conv_problem(3, True)
        out = F.conv2d(*tensors((x, weight, bias), np.float32), 1, 1)
        assert out.shape == (2, 3, 5, 6) and out.data.flags.c_contiguous

    def test_constant_input_skips_grad_x_and_keeps_weight_grads(self, monkeypatch):
        """A conv on data (the stem) never folds a gradient back to its input."""
        folds = []
        fold = F._fold_patches
        monkeypatch.setattr(F, "_fold_patches", lambda *args: folds.append(1) or fold(*args))
        arrays = conv_problem(3, True)
        probe = np.random.default_rng(1).standard_normal((2, 3, 5, 6)).astype(np.float32)

        def run(input_requires_grad):
            x = Tensor(arrays[0].astype(np.float32), requires_grad=input_requires_grad)
            weight, bias = tensors(arrays[1:], np.float32)
            out = F.conv2d(x, weight, bias, 1, 1)
            assert out._ctx.needs_input_grad == (input_requires_grad, True, True)
            (out * Tensor(probe)).sum().backward()
            return x.grad, weight.grad, bias.grad

        _, weight_grad, bias_grad = run(True)
        assert len(folds) == 1
        grad_x, const_weight_grad, const_bias_grad = run(False)
        assert len(folds) == 1 and grad_x is None
        np.testing.assert_array_equal(const_weight_grad, weight_grad)
        np.testing.assert_array_equal(const_bias_grad, bias_grad)

    def test_frozen_weight_gets_no_gradient(self):
        x, weight, _ = conv_problem(3, False)
        x_t = Tensor(x.astype(np.float32), requires_grad=True)
        w_t = Tensor(weight.astype(np.float32))
        F.conv2d(x_t, w_t, None, 1, 1).sum().backward()
        assert w_t.grad is None and x_t.grad.shape == x.shape

    @pytest.mark.parametrize("stride,padding,kernel", [(1, 1, 3), (2, 0, (2, 3)), (2, 2, 1)])
    def test_patch_matrix_is_im2col_with_the_batch_innermost(self, stride, padding, kernel):
        """The two views of the one slab kernel hold the same patches."""
        x = np.random.default_rng(5).standard_normal((3, 2, 6, 5)).astype(np.float32)
        cols, out_h, out_w = F.im2col(x, pair(kernel), stride, padding)  # (N, K, L)
        matrix = F.conv_patch_matrix(x, pair(kernel), stride, padding)  # (K, L*N)
        np.testing.assert_array_equal(matrix.reshape(-1, out_h * out_w, 3), cols.transpose(1, 2, 0))

    def test_module_calls_the_node(self):
        conv = nn.Conv2d(2, 3, (2, 3), stride=2, padding=1, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(6).standard_normal((2, 2, 5, 6)).astype(np.float32))
        out = conv(x)
        assert isinstance(out._ctx, F.Conv2dFunction)
        assert out._ctx.parents == (x, conv.weight, conv.bias)
        assert out._ctx.cols.shape == (2 * 2 * 3, out.shape[2] * out.shape[3] * 2)
        with no_grad():
            assert conv(x)._ctx is None


# ------------------------------------------------------------------------------ BatchNorm2d
def bn_pair(affine, dtype, seed=0):
    """A module with non-trivial parameters and running statistics, and an input."""
    rng = np.random.default_rng(seed)
    bn = nn.BatchNorm2d(3, affine=affine)
    if affine:
        bn.weight.data = rng.uniform(0.5, 1.5, 3).astype(np.float32)
        bn.bias.data = rng.standard_normal(3).astype(np.float32)
    bn.running_mean = bn._buffers["running_mean"] = rng.standard_normal(3).astype(np.float32)
    bn.running_var = bn._buffers["running_var"] = rng.uniform(0.5, 2.0, 3).astype(np.float32)
    x = (rng.standard_normal((4, 3, 5, 2)) * 2.0 + 1.0).astype(dtype)
    return bn, x


def bn_reference(bn, x, probe, training):
    """Composite output, input/parameter gradients and batch statistics for ``bn``'s state."""
    x_t = Tensor(x, requires_grad=True)
    weight = Tensor(bn.weight.data, requires_grad=True) if bn.affine else None
    bias = Tensor(bn.bias.data, requires_grad=True) if bn.affine else None
    running = None if training else (bn.running_mean, bn.running_var)
    out, mean, var = batchnorm2d_composite(x_t, weight, bias, bn.eps, running)
    (out * Tensor(probe)).sum().backward()
    grads = [x_t.grad] + ([weight.grad, bias.grad] if bn.affine else [])
    return out.data, grads, mean, var


class TestBatchNorm2dNode:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("affine", [True, False])
    def test_fp64_parity_with_composite(self, affine, training):
        bn, x = bn_pair(affine, np.float64)
        bn.train(training)
        probe = np.random.default_rng(2).standard_normal(x.shape)
        ref_out, ref_grads, _, _ = bn_reference(bn, x, probe, training)
        x_t = Tensor(x, requires_grad=True)
        out = bn(x_t)
        assert isinstance(out._ctx, F.BatchNorm2dFunction)
        (out * Tensor(probe)).sum().backward()
        grads = [x_t.grad] + ([bn.weight.grad, bn.bias.grad] if affine else [])
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-10, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_input_gradcheck(self, training, dtype):
        bn, x = bn_pair(True, dtype, seed=4)
        bn.train(training)
        probe = np.random.default_rng(2).standard_normal(x.shape)
        running = (bn.running_mean.copy(), bn.running_var.copy())
        x_t = Tensor(x, requires_grad=True)
        (bn(x_t) * Tensor(probe.astype(dtype))).sum().backward()

        def loss(values):
            bn.running_mean, bn.running_var = bn._buffers["running_mean"], bn._buffers["running_var"] = running
            with no_grad():
                return float((bn(Tensor(values)).data * probe).sum())

        numeric = numerical_gradient(loss, x.astype(np.float64), eps=1e-5)
        tol = 1e-6 if dtype is np.float64 else 2e-3
        np.testing.assert_allclose(x_t.grad, numeric, rtol=tol, atol=tol * np.abs(numeric).max())

    @pytest.mark.parametrize("affine", [True, False])
    def test_running_statistics_update_like_the_composite(self, affine):
        bn, x = bn_pair(affine, np.float32)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        _, _, mean, var = bn_reference(bn, x, np.ones_like(x), training=True)
        bn(Tensor(x))
        m = bn.momentum
        np.testing.assert_array_equal(bn.running_mean, (1 - m) * before[0] + m * mean.astype(np.float32))
        np.testing.assert_array_equal(bn.running_var, (1 - m) * before[1] + m * var.astype(np.float32))
        assert bn.running_mean is bn._buffers["running_mean"] and bn.running_mean.dtype == np.float32

    def test_eval_leaves_running_statistics_alone(self):
        bn, x = bn_pair(True, np.float32)
        bn.eval()
        before = (bn.running_mean.copy(), bn.running_var.copy())
        with no_grad():
            out = bn(Tensor(x))
        ref_out, _, _, _ = bn_reference(bn, x, np.ones_like(x), training=False)
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_constant_input_needs_no_input_gradient(self):
        bn, x = bn_pair(True, np.float32)
        x_t = Tensor(x)
        out = bn(x_t)
        assert out._ctx.needs_input_grad == (False, True, True)
        out.sum().backward()
        assert x_t.grad is None and bn.weight.grad.shape == (3,)


# ------------------------------------------------------------------------------ Linear
#: Leading axes of the activation: a plain batch, (batch, sequence), (batch, heads, sequence).
LEADING = [(5,), (2, 3), (2, 3, 2)]


def run_layer(fn, arrays, dtype, probe, requires_grad=(True, True, True), extra=()):
    """Output and parent gradients of ``sum(fn(*parents) * probe)``; ``None`` parents are passed through."""
    parents = [
        None if a is None else Tensor(np.asarray(a, dtype=dtype), requires_grad=flag)
        for a, flag in zip(arrays, requires_grad)
    ]
    out = fn(*parents, *extra)
    (out * Tensor(probe.astype(out.dtype))).sum().backward()
    return out, [None if p is None else p.grad for p in parents]


def linear_problem(leading, bias, seed=0, in_features=4, out_features=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(leading + (in_features,))
    weight = rng.standard_normal((out_features, in_features))
    probe = rng.standard_normal(leading + (out_features,))
    return (x, weight, rng.standard_normal(out_features) if bias else None), probe


class TestLinearNode:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("leading", LEADING)
    def test_fp64_parity_with_composite(self, leading, bias):
        arrays, probe = linear_problem(leading, bias)
        out, grads = run_layer(F.linear, arrays, np.float64, probe)
        ref_out, ref_grads = run_layer(linear_composite, arrays, np.float64, probe)
        assert out.shape == ref_out.shape == leading + (6,)
        np.testing.assert_allclose(out.data, ref_out.data, rtol=1e-10, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            if ref is not None:
                assert grad.shape == ref.shape
                np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("leading", LEADING)
    def test_gradcheck_float64(self, leading, bias):
        arrays, probe = linear_problem(leading, bias, seed=2)
        for index, array in enumerate(arrays):
            if array is None:
                continue

            def loss(tensor, index=index):
                parents = [None if a is None else Tensor(a, dtype="float64") for a in arrays]
                parents[index] = tensor
                return (F.linear(*parents) * Tensor(probe, dtype="float64")).sum()

            check_gradient(loss, array, atol=1e-7, rtol=1e-6)

    def test_non_contiguous_input(self):
        """A transposed view (what attention hands its output projection) is flattened by copy."""
        (x, weight, bias), probe = linear_problem((3, 2), True, seed=3)
        view = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(view, x)
        out, grads = run_layer(F.linear, (view, weight, bias), np.float64, probe)
        ref_out, ref_grads = run_layer(linear_composite, (x, weight, bias), np.float64, probe)
        np.testing.assert_allclose(out.data, ref_out.data, rtol=1e-10, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)

    def test_frozen_weight_and_constant_input_return_none(self):
        """``needs_input_grad`` skips the dead GEMM: the node hands ``None`` to the tape."""
        arrays, probe = linear_problem((2, 3), True, seed=4)
        _, full = run_layer(F.linear, arrays, np.float32, probe)
        for flags in [(True, False, True), (False, True, True), (True, True, False), (False, True, False)]:
            out, grads = run_layer(F.linear, arrays, np.float32, probe, requires_grad=flags)
            assert out._ctx.needs_input_grad == flags
            returned = out._ctx.backward(probe.astype(np.float32))
            for flag, value, grad, reference in zip(flags, returned, grads, full):
                assert (value is not None) == flag and (grad is not None) == flag
                if flag:
                    np.testing.assert_array_equal(grad, reference)

    def test_float16_activation_with_float32_parameters(self):
        """Same result dtype (and values, at half precision) as the composite's promotion."""
        (x, weight, bias), probe = linear_problem((2, 3), True, seed=5)
        x16 = Tensor(x.astype(np.float16), requires_grad=True)
        w32, b32 = Tensor(weight.astype(np.float32), requires_grad=True), Tensor(bias.astype(np.float32), requires_grad=True)
        out = F.linear(x16, w32, b32)
        ref = linear_composite(Tensor(x.astype(np.float16)), Tensor(weight.astype(np.float32)), Tensor(bias.astype(np.float32)))
        assert out.dtype == ref.dtype == np.float32
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-6, atol=1e-6)
        (out * Tensor(probe.astype(np.float32))).sum().backward()
        assert (x16.grad.dtype, w32.grad.dtype, b32.grad.dtype) == (np.float16, np.float32, np.float32)
        # A wider bias promotes the sum instead of being squeezed into the GEMM's dtype.
        wide = F.linear(Tensor(x.astype(np.float32)), Tensor(weight.astype(np.float32)), Tensor(bias, dtype="float64"))
        assert wide.dtype == np.float64

    @pytest.mark.parametrize("bias", [True, False])
    def test_module_records_exactly_one_node(self, bias):
        layer = nn.Linear(4, 6, bias=bias, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        out = layer(x)
        (node,) = graph_nodes(out)
        assert isinstance(node, F.LinearFunction)
        assert node.parents == ((x, layer.weight, layer.bias) if bias else (x, layer.weight))
        # The flattened activation is kept on the node, as a view of a contiguous input.
        assert node.x2.shape == (6, 4) and np.shares_memory(node.x2, x.data)
        with no_grad():
            assert layer(x)._ctx is None


# ------------------------------------------------------------------------------ LayerNorm
def layernorm_problem(leading, seed=0, features=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(leading + (features,)) * 2.0 + 0.5
    probe = rng.standard_normal(leading + (features,))
    return (x, rng.uniform(0.5, 1.5, features), rng.standard_normal(features)), probe


class TestLayerNormNode:
    EPS = 1e-5

    @pytest.mark.parametrize("leading", LEADING)
    def test_fp64_parity_with_composite(self, leading):
        arrays, probe = layernorm_problem(leading)
        out, grads = run_layer(F.layer_norm, arrays, np.float64, probe, extra=(self.EPS,))
        ref_out, ref_grads = run_layer(layernorm_composite, arrays, np.float64, probe, extra=(self.EPS,))
        np.testing.assert_allclose(out.data, ref_out.data, rtol=1e-10, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            assert grad.shape == ref.shape
            np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("leading", LEADING)
    def test_gradcheck_float64(self, leading):
        arrays, probe = layernorm_problem(leading, seed=2)
        for index, array in enumerate(arrays):

            def loss(tensor, index=index):
                parents = [Tensor(a, dtype="float64") for a in arrays]
                parents[index] = tensor
                return (F.layer_norm(*parents, self.EPS) * Tensor(probe, dtype="float64")).sum()

            check_gradient(loss, array, atol=1e-6, rtol=1e-5)

    def test_non_contiguous_input(self):
        (x, weight, bias), probe = layernorm_problem((3, 2), seed=3)
        view = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        out, grads = run_layer(F.layer_norm, (view, weight, bias), np.float64, probe, extra=(self.EPS,))
        ref_out, ref_grads = run_layer(layernorm_composite, (x, weight, bias), np.float64, probe, extra=(self.EPS,))
        np.testing.assert_allclose(out.data, ref_out.data, rtol=1e-10, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-10)

    def test_frozen_parameters_and_constant_input_return_none(self):
        arrays, probe = layernorm_problem((2, 3), seed=4)
        _, full = run_layer(F.layer_norm, arrays, np.float32, probe, extra=(self.EPS,))
        for flags in [(True, False, True), (False, True, True), (True, True, False), (True, False, False)]:
            out, grads = run_layer(F.layer_norm, arrays, np.float32, probe, requires_grad=flags, extra=(self.EPS,))
            assert out._ctx.needs_input_grad == flags
            returned = out._ctx.backward(probe.astype(np.float32))
            for flag, value, grad, reference in zip(flags, returned, grads, full):
                assert (value is not None) == flag and (grad is not None) == flag
                if flag:
                    np.testing.assert_array_equal(grad, reference)

    def test_float16_activation_with_float32_parameters(self):
        (x, weight, bias), probe = layernorm_problem((2, 3), seed=5)
        x16 = Tensor(x.astype(np.float16), requires_grad=True)
        w32, b32 = Tensor(weight.astype(np.float32), requires_grad=True), Tensor(bias.astype(np.float32), requires_grad=True)
        out = F.layer_norm(x16, w32, b32, self.EPS)
        ref = layernorm_composite(
            Tensor(x.astype(np.float16)), Tensor(weight.astype(np.float32)), Tensor(bias.astype(np.float32)), self.EPS
        )
        assert out.dtype == ref.dtype == np.float32
        assert out._ctx.x_hat.dtype == np.float16  # normalized in the activation's precision, like the composite
        np.testing.assert_allclose(out.data, ref.data, rtol=5e-3, atol=5e-3)
        (out * Tensor(probe.astype(np.float32))).sum().backward()
        assert (x16.grad.dtype, w32.grad.dtype, b32.grad.dtype) == (np.float16, np.float32, np.float32)

    def test_module_records_exactly_one_node_and_keeps_x_hat(self):
        layer = nn.LayerNorm(5)
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 5)).astype(np.float32) * 3.0, requires_grad=True)
        out = layer(x)
        (node,) = graph_nodes(out)
        assert isinstance(node, F.LayerNormFunction) and node.parents == (x, layer.weight, layer.bias)
        x_hat, inv_std = F.layer_normalize(x.data, layer.eps)
        np.testing.assert_array_equal(node.x_hat, x_hat)
        np.testing.assert_array_equal(node.inv_std, inv_std)
        np.testing.assert_allclose(node.x_hat.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(node.x_hat.var(axis=-1), 1.0, atol=1e-4)
        with no_grad():
            assert layer(x)._ctx is None


# ------------------------------------------------------------------------------ GELU / softmax
#: The tolerance every transformer node is held to against its composite: float32 rounding.
NODE_TOL = dict(rtol=1e-5, atol=1e-6)
DTYPES = [np.float32, np.float64]


def assert_matches(got, reference):
    """(output, parent gradients) of :func:`run_layer` against the oracle's, dtype and shape included."""
    (out, grads), (ref_out, ref_grads) = got, reference
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
    np.testing.assert_allclose(out.data, ref_out.data, **NODE_TOL)
    for grad, ref in zip(grads, ref_grads):
        assert grad.dtype == ref.dtype and grad.shape == ref.shape
        np.testing.assert_allclose(grad, ref, **NODE_TOL)


class TestGeluNode:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 5)])
    def test_matches_composite(self, shape, dtype):
        rng = np.random.default_rng(0)
        x, probe = rng.standard_normal(shape) * 3.0, rng.standard_normal(shape)
        assert_matches(run_layer(F.gelu, (x,), dtype, probe), run_layer(gelu_composite, (x,), dtype, probe))

    def test_gradcheck_float64(self):
        rng = np.random.default_rng(1)
        x, probe = rng.standard_normal((3, 4)) * 2.0, rng.standard_normal((3, 4))
        check_gradient(lambda t: (F.gelu(t) * Tensor(probe, dtype="float64")).sum(), x, atol=1e-7, rtol=1e-6)

    def test_non_contiguous_input_through_the_module(self):
        rng = np.random.default_rng(2)
        x, probe = rng.standard_normal((4, 3, 5)), rng.standard_normal((4, 3, 5))
        view = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        got = run_layer(nn.GELU(), (view,), np.float32, probe)
        assert_matches(got, run_layer(gelu_composite, (x,), np.float32, probe))

    def test_module_records_exactly_one_node_and_backward_repeats(self):
        x = Tensor(np.random.default_rng(3).standard_normal((2, 6)).astype(np.float32), requires_grad=True)
        out = nn.GELU()(x)
        (node,) = graph_nodes(out)
        assert isinstance(node, F.GeluFunction) and node.parents == (x,)
        out.sum().backward()
        first = x.grad.copy()
        out.sum().backward()  # the saved buffers are not consumed by a backward
        np.testing.assert_array_equal(x.grad, 2 * first)
        with no_grad():
            assert nn.GELU()(x)._ctx is None


class TestSoftmaxNode:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_matches_composite(self, axis, dtype):
        rng = np.random.default_rng(4)
        x, probe = rng.standard_normal((3, 4, 5)) * 4.0, rng.standard_normal((3, 4, 5))
        got = run_layer(F.softmax, (x,), dtype, probe, extra=(axis,))
        assert_matches(got, run_layer(softmax_composite, (x,), dtype, probe, extra=(axis,)))
        np.testing.assert_allclose(got[0].data.sum(axis=axis), 1.0, rtol=1e-6)

    def test_gradcheck_float64_and_one_node(self):
        rng = np.random.default_rng(5)
        x, probe = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        check_gradient(lambda t: (F.softmax(t) * Tensor(probe, dtype="float64")).sum(), x, atol=1e-7, rtol=1e-6)
        source = Tensor(x.astype(np.float32), requires_grad=True)
        (node,) = graph_nodes(nn.Softmax(axis=0)(source))
        assert isinstance(node, F.SoftmaxFunction)
        np.testing.assert_array_equal(source.data, x.astype(np.float32))  # the input is not overwritten


# ------------------------------------------------------------------------------ attention core
def attention_problem(seed=0, batch=2, heads=3, length=5, head_dim=4):
    """q, k, v as the head split hands them over (transposed views), a probe, a padding bias."""
    rng = np.random.default_rng(seed)
    qkv = tuple(rng.standard_normal((batch, length, heads, head_dim)).transpose(0, 2, 1, 3) for _ in range(3))
    probe = rng.standard_normal((batch, heads, length, head_dim))
    bias = np.zeros((batch, 1, 1, length))
    bias[0, ..., 3:] = -1e4  # sample 0: the last two keys are padding
    bias[1] = -1e4  # sample 1: every key is padding (a fully padded row attends uniformly)
    keep_mask = (rng.random((batch, heads, length, length)) < 0.7) / 0.7
    return qkv, probe, bias, keep_mask


class TestAttentionNode:
    SCALE = 0.5

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("padding", [False, True])
    def test_matches_composite(self, padding, dropout, dtype):
        qkv, probe, bias, keep_mask = attention_problem()
        bias = bias.astype(dtype) if padding else None
        keep_mask = keep_mask.astype(dtype) if dropout else None
        got = run_layer(F.scaled_dot_product_attention, qkv, dtype, probe, extra=(bias, self.SCALE, keep_mask))
        drop = (lambda weights: weights * Tensor(keep_mask)) if dropout else None
        assert_matches(got, run_layer(attention_composite, qkv, dtype, probe, extra=(bias, self.SCALE, drop)))
        if padding and not dropout and dtype == np.float64:
            # Every key of sample 1 carries the same bias, so it attends as if unmasked
            # (in float32 the -1e4 costs the scores their low bits, for node and composite alike).
            free = run_layer(F.scaled_dot_product_attention, qkv, dtype, probe, extra=(None, self.SCALE))
            np.testing.assert_allclose(got[0].data[1], free[0].data[1], **NODE_TOL)

    @pytest.mark.parametrize("dropout", [False, True])
    def test_gradcheck_float64(self, dropout):
        qkv, probe, bias, keep_mask = attention_problem(seed=1, length=3, head_dim=2)
        bias[0, ..., 2:] = -3.0  # a finite bias, so the finite differences see every key
        bias[1] = 0.0
        mask = keep_mask if dropout else None
        for index, array in enumerate(qkv):

            def loss(tensor, index=index):
                parents = [Tensor(a, dtype="float64") for a in qkv]
                parents[index] = tensor
                out = F.scaled_dot_product_attention(*parents, bias, self.SCALE, mask)
                return (out * Tensor(probe, dtype="float64")).sum()

            check_gradient(loss, np.ascontiguousarray(array), atol=1e-7, rtol=1e-6)

    def test_dead_parents_return_none(self):
        """``q`` (or any of the three) not requiring grad: ``None`` in its slot, the others bitwise unchanged."""
        qkv, probe, bias, keep_mask = attention_problem(seed=2)
        extra = (bias.astype(np.float32), self.SCALE, keep_mask.astype(np.float32))
        _, full = run_layer(F.scaled_dot_product_attention, qkv, np.float32, probe, extra=extra)
        for flags in [(False, True, True), (True, False, True), (True, True, False), (False, False, True)]:
            out, grads = run_layer(
                F.scaled_dot_product_attention, qkv, np.float32, probe, requires_grad=flags, extra=extra
            )
            assert out._ctx.needs_input_grad == flags
            returned = out._ctx.backward(probe.astype(np.float32))
            for flag, value, grad, reference in zip(flags, returned, grads, full):
                assert (value is not None) == flag and (grad is not None) == flag
                if flag:
                    np.testing.assert_array_equal(grad, reference)

    def test_one_node_whose_backward_repeats(self):
        qkv, probe, bias, _ = attention_problem(seed=3)
        parents = [Tensor(a.astype(np.float32), requires_grad=True) for a in qkv]
        out = F.scaled_dot_product_attention(*parents, bias.astype(np.float32), self.SCALE)
        (node,) = graph_nodes(out)
        assert isinstance(node, F.AttentionFunction) and node.parents == tuple(parents)
        loss = (out * Tensor(probe.astype(np.float32))).sum()
        loss.backward()
        first = [p.grad.copy() for p in parents]
        loss.backward()
        for parent, grad in zip(parents, first):
            np.testing.assert_allclose(parent.grad, 2 * grad, rtol=1e-6)


# ------------------------------------------------------------------------------ masked-LM loss
def mlm_problem(targets, seed=0, vocab=11):
    targets = np.asarray(targets)
    logits = np.random.default_rng(seed).standard_normal(targets.shape + (vocab,)) * 3.0
    return logits, targets


IGNORE = -100
MLM_TARGETS = {
    "none_masked": [[IGNORE] * 4, [IGNORE] * 4],
    "one_masked": [[IGNORE, 7, IGNORE, IGNORE], [IGNORE] * 4],
    "duplicate_targets": [[3, IGNORE, 3, 10], [IGNORE, 3, 0, IGNORE]],
    "all_masked": [[1, 2, 3, 4], [5, 6, 7, 8]],
}


class TestMaskedLMLossNode:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(MLM_TARGETS))
    def test_matches_composite(self, case, dtype):
        logits, targets = mlm_problem(MLM_TARGETS[case])
        probe = np.asarray(1.7)
        got = run_layer(F.masked_lm_loss, (logits,), dtype, probe, extra=(targets, IGNORE))
        assert_matches(got, run_layer(masked_lm_loss_composite, (logits,), dtype, probe, extra=(targets, IGNORE)))
        out, (grad,) = got
        assert out.shape == ()
        ignored = targets == IGNORE
        assert not grad[ignored].any()  # only the masked positions receive a gradient
        if case == "none_masked":
            assert out.item() == 0.0 and not grad.any()  # a zero loss that backpropagates zeros
        else:
            np.testing.assert_allclose(grad[~ignored].sum(axis=-1), 0.0, atol=1e-6)

    @pytest.mark.parametrize("case", ["one_masked", "duplicate_targets"])
    def test_gradcheck_float64(self, case):
        logits, targets = mlm_problem(MLM_TARGETS[case], seed=1, vocab=5)
        targets = np.minimum(targets, 4)
        check_gradient(lambda t: F.masked_lm_loss(t, targets, IGNORE), logits, atol=1e-7, rtol=1e-6)

    def test_module_records_exactly_one_node_and_backward_repeats(self):
        logits, targets = mlm_problem(MLM_TARGETS["duplicate_targets"], seed=2)
        source = Tensor(logits.astype(np.float32), requires_grad=True)
        loss = nn.MaskedLMCrossEntropyLoss()(source, targets)
        (node,) = graph_nodes(loss)
        assert isinstance(node, F.MaskedLMLossFunction) and node.parents == (source,)
        loss.backward()
        first = source.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(source.grad, 2 * first)
        np.testing.assert_array_equal(source.data, logits.astype(np.float32))  # the logits are not overwritten
        # Another ignore_index is honoured the same way.
        targets = np.where(targets == IGNORE, 0, targets)
        other = nn.MaskedLMCrossEntropyLoss(ignore_index=0)(Tensor(logits.astype(np.float32)), targets)
        reference = masked_lm_loss_composite(Tensor(logits.astype(np.float32)), targets, ignore_index=0)
        np.testing.assert_allclose(other.data, reference.data, **NODE_TOL)


# ------------------------------------------------------------------------------ module hooks
class ConvNet(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv1 = nn.Conv2d(2, 3, 3, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(3)
        self.conv2 = nn.Conv2d(3, 2, 3, stride=2, padding=1, rng=rng)
        self.bn2 = nn.BatchNorm2d(2)

    def forward(self, x):
        return self.bn2(self.conv2(self.bn1(self.conv1(x)).relu()))


def test_full_backward_hooks_fire_once_per_backward_in_reverse_layer_order():
    net = ConvNet()
    order = []
    for name, module in net.named_modules():
        if name:
            module.register_full_backward_hook(lambda m, gi, go, name=name: order.append((name, go[0].shape)))
    # The input requires grad, so conv1's event too waits for its local backward.
    x = Tensor(np.random.default_rng(1).standard_normal((2, 2, 6, 6)).astype(np.float32), requires_grad=True)
    loss = (net(x) ** 2).sum()
    loss.backward()
    expected = [("bn2", (2, 2, 3, 3)), ("conv2", (2, 2, 3, 3)), ("bn1", (2, 3, 6, 6)), ("conv1", (2, 3, 6, 6))]
    assert order == expected
    first = {name: p.grad.copy() for name, p in net.named_parameters()}
    loss.backward()  # the nodes keep their state: a repeated backward fires again and accumulates
    assert order == expected * 2
    for name, param in net.named_parameters():
        np.testing.assert_allclose(param.grad, 2 * first[name], rtol=1e-6)


class TokenNet(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.fc1 = nn.Linear(4, 6, rng=rng)
        self.norm = nn.LayerNorm(6)
        self.fc2 = nn.Linear(6, 3, bias=False, rng=rng)

    def forward(self, x):
        return self.fc2(self.norm(self.fc1(x)).relu())


@pytest.mark.parametrize("input_requires_grad", [True, False])
def test_linear_layernorm_hooks_fire_once_per_backward_in_reverse_layer_order(input_requires_grad):
    """Also when the first layer's node returns ``None`` for a constant input (data feeding the stem)."""
    net = TokenNet()
    order = []
    for name, module in net.named_modules():
        if name:
            module.register_full_backward_hook(lambda m, gi, go, name=name: order.append((name, go[0].shape)))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 5, 4)).astype(np.float32), requires_grad=input_requires_grad)
    out = net(x)
    assert len(graph_nodes(out)) == 4  # fc1, norm, relu, fc2
    loss = (out**2).sum()
    loss.backward()
    expected = [("fc2", (2, 5, 3)), ("norm", (2, 5, 6)), ("fc1", (2, 5, 6))]
    if not input_requires_grad:
        # fc1 has no input gradient to wait for, so its event is its output gradient -- the very tape
        # event norm's waits for -- and the module that registered on that tensor first (fc1) goes first.
        expected = [expected[0], expected[2], expected[1]]
    assert order == expected
    assert (x.grad is not None) == input_requires_grad
    first = {name: p.grad.copy() for name, p in net.named_parameters()}
    loss.backward()
    assert order == expected * 2
    for name, param in net.named_parameters():
        np.testing.assert_allclose(param.grad, 2 * first[name], rtol=1e-6)
