"""Finite-difference gradient checks for the autograd engine and nn.functional."""

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.tensor import Tensor

# Plain (non-relative) import: tests/ is not a package, so under a rootdir
# pytest run the module is imported top-level with tests/ on sys.path.
from composite_oracle import unfold
from gradcheck import check_gradient


RNG = np.random.default_rng(7)


class TestElementaryGradients:
    def test_add(self):
        other = RNG.random((3, 4))
        check_gradient(lambda t: (t + Tensor(other, dtype="float64")).sum(), RNG.random((3, 4)))

    def test_mul(self):
        other = RNG.random((3, 4)) + 0.5
        check_gradient(lambda t: (t * Tensor(other, dtype="float64")).sum(), RNG.random((3, 4)))

    def test_div(self):
        other = RNG.random((3, 4)) + 0.5
        check_gradient(lambda t: (t / Tensor(other, dtype="float64")).sum(), RNG.random((3, 4)))

    def test_matmul(self):
        other = RNG.random((4, 2))
        check_gradient(lambda t: (t @ Tensor(other, dtype="float64")).sum(), RNG.random((3, 4)))

    def test_pow(self):
        check_gradient(lambda t: (t ** 3).sum(), RNG.random((3, 3)) + 0.5)

    def test_exp(self):
        check_gradient(lambda t: t.exp().sum(), RNG.random((3, 3)))

    def test_log(self):
        check_gradient(lambda t: t.log().sum(), RNG.random((3, 3)) + 0.5)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), RNG.standard_normal((3, 3)))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), RNG.standard_normal((3, 3)))

    def test_mean(self):
        check_gradient(lambda t: t.mean(axis=1).sum(), RNG.random((4, 3)))

    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), RNG.random((4, 3)))

    def test_max(self):
        # Use distinct values so the max is differentiable at the test point.
        x = np.arange(12, dtype=np.float64).reshape(3, 4) + RNG.random((3, 4)) * 0.1
        check_gradient(lambda t: (t.max(axis=1) ** 2).sum(), x)

    def test_transpose_reshape_chain(self):
        check_gradient(lambda t: (t.transpose(1, 0).reshape(2, 6) ** 2).sum(), RNG.random((4, 3)))

    def test_getitem(self):
        check_gradient(lambda t: (t[1:3] ** 2).sum(), RNG.random((5, 2)))

    def test_var(self):
        check_gradient(lambda t: t.var(axis=0).sum(), RNG.random((5, 3)))


class TestFunctionalGradients:
    def test_softmax(self):
        check_gradient(lambda t: (F.softmax(t, axis=-1) ** 2).sum(), RNG.standard_normal((3, 5)))

    def test_log_softmax(self):
        check_gradient(lambda t: F.log_softmax(t, axis=-1)[np.arange(3), [0, 1, 2]].sum(), RNG.standard_normal((3, 5)))

    def test_gelu(self):
        check_gradient(lambda t: F.gelu(t).sum(), RNG.standard_normal((3, 4)))

    def test_unfold(self):
        check_gradient(
            lambda t: (unfold(t, (2, 2), stride=1, padding=1) ** 2).sum(),
            RNG.random((1, 2, 4, 4)),
        )


class TestLayerGradients:
    def test_linear_weight_gradient(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = RNG.random((5, 4)).astype(np.float32)

        def loss_from_weight(weight: np.ndarray) -> float:
            saved = layer.weight.data.copy()
            layer.weight.data = weight.astype(np.float32)
            value = float((layer(Tensor(x)) ** 2).sum().item())
            layer.weight.data = saved
            return value

        out = (layer(Tensor(x)) ** 2).sum()
        layer.zero_grad()
        out.backward()
        from gradcheck import numerical_gradient

        numeric = numerical_gradient(loss_from_weight, layer.weight.data.astype(np.float64), eps=1e-3)
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=5e-2, atol=1e-2)

    def test_conv_input_gradient(self):
        conv = nn.Conv2d(2, 3, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        conv_w = conv.weight.data.astype(np.float64)
        conv_b = conv.bias.data.astype(np.float64)

        def build(t: Tensor) -> Tensor:
            cols = unfold(t, conv.kernel_size, conv.stride, conv.padding)
            weight = Tensor(conv_w.reshape(3, -1), dtype="float64")
            out = weight @ cols + Tensor(conv_b.reshape(1, 3, 1), dtype="float64")
            return (out ** 2).sum()

        check_gradient(build, RNG.random((1, 2, 5, 5)))

    def test_batchnorm_input_gradient(self):
        bn = nn.BatchNorm2d(2)

        def build(t: Tensor) -> Tensor:
            # Re-express batchnorm in float64 via its defining formula.
            mean = t.mean(axis=(0, 2, 3), keepdims=True)
            var = t.var(axis=(0, 2, 3), keepdims=True)
            return (((t - mean) / ((var + bn.eps) ** 0.5)) ** 2).sum()

        check_gradient(build, RNG.random((2, 2, 3, 3)), atol=5e-3)

    def test_cross_entropy_gradient(self):
        targets = np.array([0, 2, 1])
        loss_fn = nn.CrossEntropyLoss()
        check_gradient(lambda t: loss_fn(t, targets), RNG.standard_normal((3, 4)))

    def test_dice_loss_gradient(self):
        masks = (RNG.random((2, 1, 4, 4)) > 0.5).astype(np.float64)
        loss_fn = nn.DiceLoss()
        check_gradient(lambda t: loss_fn(t, masks), RNG.standard_normal((2, 1, 4, 4)))

    def test_bce_with_logits_gradient(self):
        targets = (RNG.random((3, 4)) > 0.5).astype(np.float64)
        loss_fn = nn.BCEWithLogitsLoss()
        check_gradient(lambda t: loss_fn(t, targets), RNG.standard_normal((3, 4)))
