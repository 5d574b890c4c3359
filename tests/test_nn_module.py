"""Tests for Module/Parameter registration, traversal, state dicts and hooks."""

import re

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor

from gradcheck import on_output_grad


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng=np.random.default_rng(0))
        self.act = nn.ReLU()
        self.fc2 = nn.Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestRegistration:
    def test_parameters_discovered_recursively(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_modules_iteration_includes_self_and_children(self):
        net = TinyNet()
        classes = [type(m).__name__ for m in net.modules()]
        assert classes[0] == "TinyNet"
        assert "Linear" in classes and "ReLU" in classes

    def test_named_modules_prefixes(self):
        net = TinyNet()
        names = dict(net.named_modules())
        assert "fc1" in names and "fc2" in names

    def test_children_only_direct(self):
        net = TinyNet()
        assert len(list(net.children())) == 3

    def test_parameter_is_tensor_requiring_grad(self):
        p = Parameter(np.zeros(3))
        assert isinstance(p, Tensor) and p.requires_grad

    def test_buffer_registration(self):
        bn = nn.BatchNorm2d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state


class TestModes:
    def test_train_eval_propagates(self):
        net = TinyNet()
        net.eval()
        assert not net.training and not net.fc1.training
        net.train()
        assert net.training and net.fc2.training

    def test_zero_grad_clears_all(self):
        net = TinyNet()
        out = net(Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self):
        net1, net2 = TinyNet(), TinyNet()
        net2.fc1.weight.data += 1.0
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_allclose(net1.fc1.weight.data, net2.fc1.weight.data)

    def test_missing_key_raises(self):
        net = TinyNet()
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_state_dict_is_copy(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"][:] = 99.0
        assert not np.allclose(net.fc1.weight.data, 99.0)

    def test_batchnorm_buffers_roundtrip(self):
        bn1 = nn.BatchNorm2d(3)
        bn1(Tensor(np.random.default_rng(0).random((4, 3, 5, 5)).astype(np.float32)))
        bn2 = nn.BatchNorm2d(3)
        bn2.load_state_dict(bn1.state_dict())
        np.testing.assert_allclose(bn1._buffers["running_mean"], bn2._buffers["running_mean"])

    @pytest.mark.parametrize(
        "key, fault, error",
        [
            ("1.weight", "missing", KeyError),
            ("1.running_mean", "missing", KeyError),
            ("1.running_var", "shape", ValueError),
            ("0.weight", "shape", ValueError),
        ],
    )
    def test_a_refused_load_assigns_nothing(self, key, fault, error):
        """A missing parameter or buffer, or a wrong shape, raises before any entry is assigned."""
        rng = np.random.default_rng(0)
        source = nn.Sequential(nn.Conv2d(2, 3, 1, rng=rng), nn.BatchNorm2d(3))
        source(Tensor(rng.random((4, 2, 5, 5)).astype(np.float32)))  # running statistics away from their init
        target = nn.Sequential(nn.Conv2d(2, 3, 1, rng=rng), nn.BatchNorm2d(3))
        state = source.state_dict()
        if fault == "missing":
            del state[key]
        else:
            state[key] = state[key][:2]
        before = target.state_dict()
        with pytest.raises(error, match=re.escape(repr(key))):
            target.load_state_dict(state)
        for name, value in target.state_dict().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)


class TestHooks:
    def test_forward_hook_called_with_inputs_and_output(self):
        net = TinyNet()
        calls = []
        net.fc1.register_forward_hook(lambda module, inputs, output: calls.append((module, inputs, output)))
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        net(x)
        assert len(calls) == 1
        module, inputs, output = calls[0]
        assert module is net.fc1
        assert inputs[0] is x
        assert output.shape == (2, 8)

    def test_hook_removal(self):
        net = TinyNet()
        calls = []
        remove = net.fc1.register_forward_hook(lambda m, i, o: calls.append(1))
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        remove()
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert len(calls) == 1

    def test_multiple_hooks_in_order(self):
        net = TinyNet()
        order = []
        net.fc1.register_forward_hook(lambda m, i, o: order.append("a"))
        net.fc1.register_forward_hook(lambda m, i, o: order.append("b"))
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert order == ["a", "b"]

    def test_removal_is_idempotent(self):
        net = TinyNet()
        calls = []
        handle_a = net.fc1.register_forward_hook(lambda m, i, o: calls.append("a"))
        handle_b = net.fc1.register_forward_hook(lambda m, i, o: calls.append("b"))
        handle_a.remove()
        handle_a.remove()  # second removal must not drop another registration
        handle_a()
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert calls == ["b"]
        handle_b.remove()
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert calls == ["b"]

    def test_duplicate_registrations_are_distinct(self):
        net = TinyNet()
        calls = []

        def hook(m, i, o):
            calls.append(1)

        first = net.fc1.register_forward_hook(hook)
        second = net.fc1.register_forward_hook(hook)
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert len(calls) == 2
        first.remove()  # removes only its own registration, not the twin's
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert len(calls) == 3
        second.remove()
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert len(calls) == 3

    def test_removal_during_iteration_is_safe(self):
        net = TinyNet()
        calls = []
        handles = {}

        def self_removing(m, i, o):
            calls.append("self")
            handles["self"].remove()

        handles["self"] = net.fc1.register_forward_hook(self_removing)
        net.fc1.register_forward_hook(lambda m, i, o: calls.append("after"))
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        # Both hooks ran this pass despite the mid-iteration removal...
        assert calls == ["self", "after"]
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        # ...and the removed one is gone on the next pass.
        assert calls == ["self", "after", "after"]

    def test_non_callable_hook_rejected(self):
        net = TinyNet()
        with pytest.raises(TypeError):
            net.fc1.register_forward_hook("not-a-hook")


class TestOutputGradientHooks:
    """A forward hook that arms a tensor hook on the call's output sees its gradient: how K-FAC captures G."""

    def _run(self, net, batch=2):
        out = net(Tensor(np.ones((batch, 4), dtype=np.float32)))
        out.sum().backward()
        return out

    def test_hook_receives_the_output_gradient(self):
        net = TinyNet()
        grads = []
        on_output_grad(net.fc2, grads.append)
        self._run(net)
        assert len(grads) == 1
        assert grads[0].shape == (2, 2)
        np.testing.assert_allclose(grads[0], 1.0)

    def test_hooks_fire_in_reverse_layer_order(self):
        net = TinyNet()
        order = []
        on_output_grad(net.fc1, lambda grad: order.append("fc1"))
        on_output_grad(net.fc2, lambda grad: order.append("fc2"))
        self._run(net)
        assert order == ["fc2", "fc1"]

    def test_fires_once_per_backward(self):
        net = TinyNet()
        count = []
        on_output_grad(net.fc1, lambda grad: count.append(1))
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        out = net(x).sum()
        out.backward()
        out.backward()  # a second backward over the same graph fires again
        assert len(count) == 2

    def test_no_fire_without_backward_or_in_no_grad(self):
        from repro.tensor import no_grad

        net = TinyNet()
        count = []
        on_output_grad(net.fc1, lambda grad: count.append(1))
        net(Tensor(np.ones((1, 4), dtype=np.float32)))
        with no_grad():
            assert not net(Tensor(np.ones((1, 4), dtype=np.float32))).requires_grad  # nothing to arm
        assert count == []

    def test_removal_handle(self):
        net = TinyNet()
        count = []
        handle = on_output_grad(net.fc1, lambda grad: count.append(1))
        self._run(net)
        handle.remove()
        handle.remove()
        self._run(net)
        assert len(count) == 1


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = nn.Sequential(nn.Linear(3, 3, rng=np.random.default_rng(0)), nn.ReLU())
        out = seq(Tensor(np.ones((2, 3), dtype=np.float32)))
        assert out.shape == (2, 3)
        assert np.all(out.numpy() >= 0)

    def test_sequential_len_and_getitem(self):
        seq = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(seq) == 2
        assert isinstance(seq[1], nn.Tanh)

    def test_modulelist_registers_parameters(self):
        ml = nn.ModuleList([nn.Linear(2, 2, rng=np.random.default_rng(0)) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(ml[0].parameters())) == 2
        assert len([p for _, p in ml.named_parameters()]) == 6

    def test_modulelist_forward_raises(self):
        with pytest.raises(RuntimeError):
            nn.ModuleList([nn.ReLU()])(Tensor([1.0]))
