"""Tests for the Tensor autograd engine: forward semantics and graph behaviour."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.tensor import Tensor, no_grad, is_grad_enabled, float16
from repro.tensor import tensor as tape
from repro.tensor.tensor import _unbroadcast


class TestConstruction:
    def test_from_list_uses_default_dtype(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_integer_input_promoted_to_float(self):
        t = Tensor(np.arange(5))
        assert t.dtype == np.float32

    def test_explicit_dtype(self):
        t = Tensor([1.0, 2.0], dtype="float16")
        assert t.dtype == np.float16

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_zeros_ones_randn(self):
        assert np.all(Tensor.zeros(2, 3).numpy() == 0)
        assert np.all(Tensor.ones(2, 3).numpy() == 1)
        assert Tensor.randn(4, 5, rng=np.random.default_rng(0)).shape == (4, 5)

    def test_detach_breaks_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_on_scalar(self):
        assert Tensor([3.5]).sum().item() == pytest.approx(3.5)

    def test_item_on_nonscalar_raises(self):
        with pytest.raises(Exception):
            Tensor([1.0, 2.0]).item()

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmetic:
    def test_add_forward(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_add_scalar(self):
        np.testing.assert_allclose((Tensor([1.0, 2.0]) + 1.0).numpy(), [2.0, 3.0])

    def test_radd(self):
        np.testing.assert_allclose((1.0 + Tensor([1.0, 2.0])).numpy(), [2.0, 3.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).numpy(), [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).numpy(), [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])).numpy(), [8.0, 15.0])
        np.testing.assert_allclose((Tensor([8.0]) / 2.0).numpy(), [4.0])
        np.testing.assert_allclose((8.0 / Tensor([2.0])).numpy(), [4.0])

    def test_neg_pow_sqrt(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).numpy(), [-1.0, 2.0])
        np.testing.assert_allclose((Tensor([2.0]) ** 3).numpy(), [8.0])
        np.testing.assert_allclose(Tensor([9.0]).sqrt().numpy(), [3.0])

    def test_matmul(self):
        a = Tensor(np.eye(3, dtype=np.float32) * 2)
        b = Tensor(np.ones((3, 2), dtype=np.float32))
        np.testing.assert_allclose((a @ b).numpy(), 2 * np.ones((3, 2)))

    def test_batched_matmul_shape(self):
        a = Tensor(np.ones((4, 3, 5), dtype=np.float32))
        b = Tensor(np.ones((4, 5, 2), dtype=np.float32))
        assert (a @ b).shape == (4, 3, 2)

    def test_broadcast_add_backward_unbroadcasts(self):
        a = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((4,), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_broadcast_mul_backward(self):
        a = Tensor(np.full((2, 3), 2.0, dtype=np.float32), requires_grad=True)
        b = Tensor(np.full((1, 3), 3.0, dtype=np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        np.testing.assert_allclose(t.sum(axis=0).numpy(), [3.0, 5.0, 7.0])
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_matches_numpy(self):
        data = np.random.default_rng(0).random((3, 4)).astype(np.float32)
        np.testing.assert_allclose(Tensor(data).mean(axis=1).numpy(), data.mean(axis=1), rtol=1e-6)

    def test_max_reduction(self):
        data = np.array([[1.0, 5.0], [7.0, 2.0]], dtype=np.float32)
        np.testing.assert_allclose(Tensor(data).max(axis=1).numpy(), [5.0, 7.0])

    @pytest.mark.parametrize("axis, keepdims", [(1, False), (0, True), (None, False)])
    def test_max_gradient_keeps_the_input_dtype_and_splits_ties(self, axis, keepdims):
        data = np.array([[1.0, 5.0, 5.0], [7.0, 2.0, 3.0]], dtype=np.float32)
        t = Tensor(data, requires_grad=True)
        t.max(axis=axis, keepdims=keepdims).sum().backward()
        assert t.grad.dtype == np.float32
        expected = {1: [[0, 0.5, 0.5], [1, 0, 0]], 0: [[0, 1, 1], [1, 0, 0]], None: [[0, 0, 0], [1, 0, 0]]}[axis]
        np.testing.assert_array_equal(t.grad, np.asarray(expected, dtype=np.float32))
        # The composite log-softmax (max, sub, exp, sum, log) stays in float32 too.
        F.log_softmax(t, axis=-1).sum().backward()
        assert t.grad.dtype == np.float32

    def test_var(self):
        data = np.random.default_rng(0).random((5, 3)).astype(np.float32)
        np.testing.assert_allclose(Tensor(data).var(axis=0).numpy(), data.var(axis=0), rtol=1e-5)

    def test_reshape_and_flatten(self):
        t = Tensor(np.arange(12, dtype=np.float32))
        assert t.reshape(3, 4).shape == (3, 4)
        assert t.reshape((2, 6)).shape == (2, 6)
        assert Tensor(np.zeros((2, 3, 4))).flatten(1).shape == (2, 12)

    def test_transpose_default_and_axes(self):
        t = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert t.transpose().shape == (4, 3, 2)
        assert t.transpose(0, 2, 1).shape == (2, 4, 3)
        assert t.transpose(0, 2).shape == (4, 3, 2)

    def test_T_property(self):
        assert Tensor(np.zeros((2, 5))).T.shape == (5, 2)

    def test_getitem(self):
        t = Tensor(np.arange(10, dtype=np.float32))
        np.testing.assert_allclose(t[2:5].numpy(), [2.0, 3.0, 4.0])

    def test_getitem_fancy_index_backward_accumulates(self):
        t = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        out = t[np.array([0, 0, 2])]
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "index",
        [
            np.array([3, 0, 3, 3, 1, 0]),  # duplicates, unsorted
            np.array([-1, 2, -4, 2, 3, -1]),  # negative rows alias positive ones (row -1 is row 3, -4 is 0)
            np.array([], dtype=np.int64),  # nothing gathered
            np.array([[1, 1, 0], [3, 1, -2]]),  # a 2-D index (batch x sequence of token ids)
            np.array([2, 0, 1], dtype=np.uint8),  # unsigned, no duplicates
        ],
        ids=["duplicates", "negative", "empty", "two-dimensional", "unsigned"],
    )
    def test_getitem_row_gather_backward_equals_add_at(self, index, dtype):
        """Integer-array rows of a 2-D source: the sort-and-segment-sum scatter against ``np.add.at``."""
        rng = np.random.default_rng(7)
        source = Tensor(rng.standard_normal((4, 5)).astype(dtype), requires_grad=True)
        out = source[index]
        assert out.shape == index.shape + (5,)
        grad = rng.standard_normal(out.shape).astype(dtype)
        out.backward(grad)
        expected = np.zeros((4, 5), dtype=dtype)
        np.add.at(expected, index, grad)
        assert source.grad.dtype == dtype
        # Equal up to the association order of a repeated row's sum; exact where no row repeats.
        np.testing.assert_allclose(source.grad, expected, rtol=1e-6 if dtype is np.float32 else 1e-14, atol=0)
        if np.unique(index % 4).size == index.size:
            np.testing.assert_array_equal(source.grad, expected)
        untouched = np.setdiff1d(np.arange(4), index % 4)
        assert not source.grad[untouched].any()

    def test_getitem_other_index_forms_keep_their_gradients(self):
        """Slices, tuples of arrays, boolean masks and 1-D / 3-D sources take the generic scatter."""
        rng = np.random.default_rng(8)
        cases = [
            ((4, 5), (np.array([0, 0, 2]), np.array([1, 1, 4]))),  # the masked-LM loss's (row, target) gather
            ((4, 5), slice(1, 3)),
            ((4, 5), np.array([True, False, True, True])),
            ((6,), np.array([0, 0, 5, -1])),
            ((3, 4, 2), np.array([2, 2, 0])),
        ]
        for shape, index in cases:
            source = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            out = source[index]
            grad = rng.standard_normal(out.shape).astype(np.float32)
            out.backward(grad)
            expected = np.zeros(shape, dtype=np.float32)
            np.add.at(expected, index, grad)
            np.testing.assert_array_equal(source.grad, expected)

    def test_concatenate_forward_backward(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0, dtype=np.float32), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_pad(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = t.pad(((1, 1), (0, 0)))
        assert out.shape == (4, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 2)))

    def test_stack(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        out = Tensor.stack([a, b], axis=0)
        np.testing.assert_allclose(out.numpy(), [[1.0, 2.0], [3.0, 4.0]])


class TestElementwise:
    def test_relu(self):
        np.testing.assert_allclose(Tensor([-1.0, 2.0]).relu().numpy(), [0.0, 2.0])

    def test_sigmoid_range(self):
        out = Tensor(np.linspace(-5, 5, 11).astype(np.float32)).sigmoid().numpy()
        assert np.all(out > 0) and np.all(out < 1)

    def test_tanh_matches_numpy(self):
        data = np.linspace(-2, 2, 9).astype(np.float32)
        np.testing.assert_allclose(Tensor(data).tanh().numpy(), np.tanh(data), rtol=1e-6)

    def test_exp_log_roundtrip(self):
        data = np.array([0.5, 1.0, 2.0], dtype=np.float32)
        np.testing.assert_allclose(Tensor(data).log().exp().numpy(), data, rtol=1e-5)

    def test_clip(self):
        out = Tensor([-2.0, 0.5, 3.0]).clip(0.0, 1.0)
        np.testing.assert_allclose(out.numpy(), [0.0, 0.5, 1.0])

    def test_astype(self):
        t = Tensor([1.0, 2.0]).astype(float16)
        assert t.dtype == np.float16


class TestAutogradMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).sum().backward()

    def test_backward_nonscalar_needs_grad_argument(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(RuntimeError):
            out.backward()
        out.backward(np.ones(2, dtype=np.float32))
        np.testing.assert_allclose(t.grad, [2.0, 2.0])

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates_correctly(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2
        z = y + y  # d/dx = 4
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_reused_tensor_in_two_branches(self):
        x = Tensor([2.0], requires_grad=True)
        out = (x * x) + x  # derivative 2x + 1 = 5
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_hook_receives_gradient(self):
        captured = []
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3
        y.register_hook(lambda g: captured.append(g.copy()))
        (y * 2).sum().backward()
        assert len(captured) == 1
        np.testing.assert_allclose(captured[0], [2.0, 2.0])

    def test_hook_on_leaf(self):
        captured = []
        x = Tensor([1.0], requires_grad=True)
        x.register_hook(lambda g: captured.append(g.copy()))
        (x * 5).sum().backward()
        np.testing.assert_allclose(captured[0], [5.0])

    def test_grad_not_tracked_for_non_required_parents(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=False)
        (a * b).sum().backward()
        assert b.grad is None
        np.testing.assert_allclose(a.grad, [2.0])

    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        assert (a + b).requires_grad
        assert not (b + b).requires_grad


# The two-parent elementary ops compute a gradient only for the parents that need one.
BINARY_OPS = {
    "Add": lambda a, b: a + b,
    "Sub": lambda a, b: a - b,
    "Mul": lambda a, b: a * b,
    "Div": lambda a, b: a / b,
    "MatMul": lambda a, b: a @ b,
}
#: Shapes of the constant against a (3, 4, 4) variable: a scalar, a broadcast row and column, the same shape.
CONSTANT_SHAPES = {"scalar": (), "row": (4,), "column": (3, 1, 1), "same": (3, 4, 4)}


def parent_expression(op, grad, a, b):
    """Both parents' gradients as the ops computed them before they looked at ``needs_input_grad``."""
    if op == "MatMul":
        return (
            _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape),
            _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape),
        )
    grad_a, grad_b = {
        "Add": (grad, grad),
        "Sub": (grad, -grad),
        "Mul": (grad * b, grad * a),
        "Div": (grad / b, -grad * a / (b * b)),
    }[op]
    return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


class TestDeadGradientsInElementaryOps:
    @staticmethod
    def spy(monkeypatch, op):
        """Record what ``<op>.backward`` hands back to the engine."""
        cls, returned = getattr(tape, op), []
        original = cls.backward

        def backward(self, grad):
            result = original(self, grad)
            returned.append(result)
            return result

        monkeypatch.setattr(cls, "backward", backward)
        return returned

    @staticmethod
    def operands(op, constant):
        rng = np.random.default_rng(0)
        shape = (4, 4) if (op == "MatMul" and constant == "row") else CONSTANT_SHAPES[constant]
        variable = rng.standard_normal((3, 4, 4)).astype(np.float32)
        return variable, (rng.standard_normal(shape) + 3.0).astype(np.float32), rng.standard_normal((3, 4, 4)).astype(np.float32)

    @pytest.mark.parametrize("constant_first", [False, True])
    @pytest.mark.parametrize(
        "op, constant",
        # matmul takes no scalar operand; its broadcast operand is one (4, 4) matrix for the whole batch
        [(op, c) for op in sorted(BINARY_OPS) for c in sorted(CONSTANT_SHAPES) if op != "MatMul" or c in ("row", "same")],
    )
    def test_constant_operand_gets_none_and_the_variable_keeps_its_gradient(self, monkeypatch, op, constant, constant_first):
        variable, value, probe = self.operands(op, constant)
        returned = self.spy(monkeypatch, op)
        x = Tensor(variable, requires_grad=True)
        # A Python scalar takes the same route: the operators wrap it in a constant tensor.
        c = float(value) if constant == "scalar" else Tensor(value)
        out = BINARY_OPS[op](c, x) if constant_first else BINARY_OPS[op](x, c)
        out.backward(probe)
        (result,) = returned
        a, b = out._ctx.parents  # ``2.0 + x`` records (x, 2.0): the reflected operators of + and * swap
        slot = 0 if a is x else 1
        assert out._ctx.needs_input_grad == (slot == 0, slot == 1)
        assert result[1 - slot] is None and result[slot] is not None
        np.testing.assert_array_equal(x.grad, parent_expression(op, probe, a.data, b.data)[slot])

    @pytest.mark.parametrize("constant", ["row", "same"])
    @pytest.mark.parametrize("op", sorted(BINARY_OPS))
    def test_an_operand_that_requires_grad_still_gets_it(self, monkeypatch, op, constant):
        variable, value, probe = self.operands(op, constant)
        returned = self.spy(monkeypatch, op)
        x, c = Tensor(variable, requires_grad=True), Tensor(value, requires_grad=True)
        BINARY_OPS[op](x, c).backward(probe)
        (result,) = returned
        expected = parent_expression(op, probe, variable, value)
        for tensor, got, reference in zip((x, c), result, expected):
            np.testing.assert_array_equal(got, reference)
            np.testing.assert_array_equal(tensor.grad, reference)
            assert tensor.grad.shape == tensor.shape
