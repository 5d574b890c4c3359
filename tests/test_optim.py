"""Tests for first-order optimizers (block-fused; held to ``optimizer_oracle.py`` bit for bit), LR schedulers and the GradScaler."""

import numpy as np
import pytest

from optimizer_oracle import LoopOptimizer, lamb_reference_step

from repro import nn, optim
from repro.nn.module import Parameter
from repro.optim.optimizer import BLOCK_ELEMENTS
from repro.tensor import Tensor


def quadratic_problem(dim=5, seed=0):
    """A convex quadratic: minimising ||x - target||^2."""
    rng = np.random.default_rng(seed)
    target = rng.random(dim).astype(np.float32)
    param = Parameter(np.zeros(dim, dtype=np.float32))

    def loss_and_grad():
        param.grad = 2 * (param.data - target)
        return float(np.sum((param.data - target) ** 2))

    return param, target, loss_and_grad


class TestSGD:
    def test_plain_sgd_step(self):
        param = Parameter(np.array([1.0], dtype=np.float32))
        param.grad = np.array([0.5], dtype=np.float32)
        optim.SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [0.95])

    def test_momentum_accumulates(self):
        param = Parameter(np.array([0.0], dtype=np.float32))
        opt = optim.SGD([param], lr=1.0, momentum=0.9)
        param.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        first = param.data.copy()
        param.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # Second step moves further because of the momentum buffer.
        assert abs(param.data[0] - first[0]) > 1.0

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.array([10.0], dtype=np.float32))
        param.grad = np.array([0.0], dtype=np.float32)
        optim.SGD([param], lr=0.1, weight_decay=0.1).step()
        assert param.data[0] < 10.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            optim.SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)

    def test_converges_on_quadratic(self):
        param, target, loss_and_grad = quadratic_problem()
        opt = optim.SGD([param], lr=0.1, momentum=0.9)
        for _ in range(300):
            loss_and_grad()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        a.grad = np.ones(2, dtype=np.float32)
        optim.SGD([a, b], lr=0.5).step()
        np.testing.assert_allclose(b.data, 1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            optim.SGD([Parameter(np.zeros(1))], lr=-1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            optim.SGD([], lr=0.1)


class TestAdamLamb:
    def test_adam_converges_on_quadratic(self):
        param, target, loss_and_grad = quadratic_problem(seed=1)
        opt = optim.Adam([param], lr=0.05)
        for _ in range(300):
            loss_and_grad()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_bias_correction_first_step(self):
        param = Parameter(np.array([0.0], dtype=np.float32))
        param.grad = np.array([1.0], dtype=np.float32)
        optim.Adam([param], lr=0.1).step()
        # With bias correction the first step is approximately -lr * sign(grad).
        assert param.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_adamw_decoupled_weight_decay(self):
        p1 = Parameter(np.array([1.0], dtype=np.float32))
        p2 = Parameter(np.array([1.0], dtype=np.float32))
        p1.grad = np.array([0.0], dtype=np.float32)
        p2.grad = np.array([0.0], dtype=np.float32)
        optim.Adam([p1], lr=0.1, weight_decay=0.1).step()
        optim.AdamW([p2], lr=0.1, weight_decay=0.1).step()
        # Adam with zero gradient and L2 in the gradient normalizes the decay away;
        # AdamW applies it directly so the weight must shrink.
        assert p2.data[0] < 1.0

    def test_lamb_trust_ratio_scales_update(self):
        # Two parameters with identical gradients but different norms should move
        # proportionally to their own norm (layer-wise adaptation).
        small = Parameter(np.full(4, 0.01, dtype=np.float32))
        large = Parameter(np.full(4, 10.0, dtype=np.float32))
        small.grad = np.full(4, 1.0, dtype=np.float32)
        large.grad = np.full(4, 1.0, dtype=np.float32)
        optim.LAMB([small, large], lr=0.1, weight_decay=0.0).step()
        small_step = np.abs(small.data - 0.01).mean()
        large_step = np.abs(large.data - 10.0).mean()
        assert large_step > small_step

    def test_lamb_converges_on_quadratic(self):
        param, target, loss_and_grad = quadratic_problem(seed=2)
        param.data += 1.0
        opt = optim.LAMB([param], lr=0.02, weight_decay=0.0)
        losses = []
        for _ in range(200):
            losses.append(loss_and_grad())
            opt.step()
        assert losses[-1] < losses[0] * 0.1

    @pytest.mark.parametrize("weight_decay", [0.01, 0.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.float64])
    def test_lamb_in_place_step_is_bitwise_the_plain_expression(self, dtype, weight_decay):
        """25 steps of ``LAMB.step`` (fused over the block, moments in flat buffers) against the plain expression."""
        rng = np.random.default_rng(7)
        shapes = [(6, 5), (7,), (), (3, 2, 4)]
        initial = [np.asarray(rng.standard_normal(shape), dtype=dtype) for shape in shapes]
        params = [Parameter(value.copy()) for value in initial]
        assert all(param.data.dtype == dtype for param in params)
        opt = optim.LAMB(params, lr=0.05, weight_decay=weight_decay)
        ref_data = [value.copy() for value in initial]
        ref_state = [None] * len(shapes)
        for step in range(25):
            for index, param in enumerate(params):
                before = param.data
                # A zero gradient on the vector exercises the trust_ratio = 1 branch on the first step.
                scale = 0.0 if (index == 1 and step == 0) else 1.0
                param.grad = np.asarray(rng.standard_normal(param.data.shape) * scale, dtype=dtype)
                ref_data[index], ref_state[index] = lamb_reference_step(
                    ref_data[index], param.grad, ref_state[index], lr=0.05, weight_decay=weight_decay
                )
            opt.step()
            for index, param in enumerate(params):
                moments = opt.state_for(param)
                assert param.data.dtype == dtype and moments["exp_avg"].dtype == np.float32
                np.testing.assert_array_equal(param.data, ref_data[index])
                np.testing.assert_array_equal(moments["exp_avg"], ref_state[index]["exp_avg"])
                np.testing.assert_array_equal(moments["exp_avg_sq"], ref_state[index]["exp_avg_sq"])
                assert moments["step"] == step + 1
        assert before is not params[-1].data  # the step rebinds ``data``; an array handed out earlier is not written
        assert sorted(opt.state_dict()["state"][0]) == ["exp_avg", "exp_avg_sq", "step"]

    def test_state_bytes_counts_moments(self):
        param = Parameter(np.zeros(10, dtype=np.float32))
        param.grad = np.ones(10, dtype=np.float32)
        opt = optim.Adam([param], lr=0.1)
        opt.step()
        assert opt.state_bytes() == 2 * 10 * 4


#: name -> (repro.optim class, group defaults): every update rule and both weight-decay flavours.
FUSED_CASES = {
    "sgd": (optim.SGD, dict(lr=0.05)),
    "sgd-momentum": (optim.SGD, dict(lr=0.05, momentum=0.9)),
    "sgd-nesterov-decay": (optim.SGD, dict(lr=0.05, momentum=0.9, nesterov=True, weight_decay=0.01)),
    "adam-l2": (optim.Adam, dict(lr=0.01, weight_decay=0.01)),
    "adamw": (optim.AdamW, dict(lr=0.01, weight_decay=0.01)),
    "lamb": (optim.LAMB, dict(lr=0.05, weight_decay=0.01)),
    "lamb-no-decay": (optim.LAMB, dict(lr=0.05, weight_decay=0.0)),
}


def oracle_for(name, params):
    """The per-parameter loop (``tests/optimizer_oracle.py``) for ``FUSED_CASES[name]`` over ``params``."""
    return LoopOptimizer(name.split("-")[0], params, **FUSED_CASES[name][1])


def copied(entry):
    """A state entry with its arrays copied (scalars as they are)."""
    return {key: value.copy() if isinstance(value, np.ndarray) else value for key, value in entry.items()}


def assert_same_parameters_and_state(opt, params, oracle, twins):
    for param, twin in zip(params, twins):
        assert param.data.dtype == twin.data.dtype and param.data.shape == twin.data.shape
        np.testing.assert_array_equal(param.data, twin.data)
        state, expected = opt.state.get(id(param)) or {}, oracle.state.get(id(twin)) or {}
        assert sorted(state) == sorted(expected)
        for key, value in expected.items():
            np.testing.assert_array_equal(state[key], value)
            if isinstance(value, np.ndarray):
                assert state[key].dtype == np.float32 and state[key].shape == param.data.shape


class TestFusedStepMatchesTheLoop:
    """The block-fused steps against ``tests/optimizer_oracle.py``, bit for bit."""

    @staticmethod
    def build(rng):
        """Two identical parameter lists laid out to cross every seam of the block iterator.

        Group one (its own ``lr``): float32 / float16 / float64 neighbours and
        two 0-d parameters inside one block.  Group two: a parameter larger
        than the block cap (a block of its own) between blocks of many small
        ones, enough of them to fill more than one block.
        """
        small = [((6, 5), np.float32), ((7,), np.float32), ((), np.float32), ((3, 2, 4), np.float16)]
        small += [((5,), np.float16), ((4, 4), np.float64), ((), np.float64), ((9,), np.float32)]
        many = [((2048,), np.float32)] * 70  # 143 360 elements: more than one block of small parameters
        large = [((BLOCK_ELEMENTS + 3,), np.float32)]
        layout = small + many[:3] + large + many[3:]
        values = [np.asarray(rng.standard_normal(shape), dtype=dtype) for shape, dtype in layout]
        lists = [[Parameter(value.copy()) for value in values] for _ in range(2)]
        groups = [[{"params": ps[: len(small)], "lr": 0.02}, {"params": ps[len(small) :]}] for ps in lists]
        return lists, groups

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_25_steps_bitwise(self, name):
        rng = np.random.default_rng(11)
        (params, twins), (groups, twin_groups) = self.build(rng)
        opt = FUSED_CASES[name][0](groups, **FUSED_CASES[name][1])
        oracle = oracle_for(name, twin_groups)
        assert [len(blocks) for blocks in opt._blocks] == [1, 4]
        for step in range(25):
            for index, (param, twin) in enumerate(zip(params, twins)):
                # Parameter 5 never trains; the others each sit a step out now and then, so a
                # block splits into runs and neighbours carry different step counts.
                if index == 5 or (index + step) % 7 == 3:
                    param.grad = twin.grad = None
                    continue
                grad = np.asarray(rng.standard_normal(param.data.shape), dtype=param.data.dtype)
                if index % 3 == 0:
                    grad = grad.astype(np.float32)  # a gradient need not have its parameter's dtype
                param.grad, twin.grad = grad, grad.copy()
            handed_out = params[0].data
            kept = handed_out.copy()
            opt.step()
            oracle.step()
            assert_same_parameters_and_state(opt, params, oracle, twins)
            assert params[0].data is not handed_out or params[0].grad is None
            np.testing.assert_array_equal(handed_out, kept)  # an array handed out earlier is never written
        if name.startswith(("adam", "lamb")):
            counts = {opt.state_for(param).get("step") for param in params}
            assert None in counts and len(counts) > 2  # parameter 5 never stepped; the rest differ

    def test_the_moments_are_all_the_optimizer_keeps(self):
        """No persistent scratch and no flat copy of parameters or gradients: a step's temporaries are per run."""
        rng = np.random.default_rng(0)
        params = [Parameter(rng.standard_normal(2048).astype(np.float32)) for _ in range(200)]
        opt = optim.LAMB(params, lr=0.01)
        for param in params:
            param.grad = np.ones_like(param.data)
        opt.step()
        buffers = [flat for blocks in opt._blocks for block in blocks for flat, _ in block.states.values()]
        assert sum(buffer.nbytes for buffer in buffers) == opt.state_bytes() == 2 * 200 * 2048 * 4
        assert max(buffer.size for buffer in buffers) <= BLOCK_ELEMENTS
        assert not any(isinstance(value, np.ndarray) for value in vars(opt).values())


class TestRebindingBetweenSteps:
    """Whatever is rebound from outside between two steps is what the next step reads (the aliasing bug class)."""

    @staticmethod
    def pair(name, shapes=((4, 3), (3,), (), (5, 2))):
        rng = np.random.default_rng(3)
        values = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        params, twins = ([Parameter(value.copy()) for value in values] for _ in range(2))
        return params, twins, FUSED_CASES[name][0](params, **FUSED_CASES[name][1]), oracle_for(name, twins)

    @staticmethod
    def step_both(opt, params, oracle, twins, seed):
        rng = np.random.default_rng(seed)
        for param, twin in zip(params, twins):
            param.grad = rng.standard_normal(param.data.shape).astype(np.float32)
            twin.grad = param.grad.copy()
        opt.step()
        oracle.step()

    @pytest.mark.parametrize("name", ["sgd-momentum", "adamw", "lamb"])
    def test_parameter_data_rebound_from_outside_is_picked_up(self, name):
        params, twins, opt, oracle = self.pair(name)
        for step in range(6):
            self.step_both(opt, params, oracle, twins, seed=step)
            if step == 2:  # what Module.load_state_dict / broadcast_parameters do: a fresh array per parameter
                for param, twin in zip(params, twins):
                    param.data = np.full_like(param.data, 0.25)
                    twin.data = np.full_like(twin.data, 0.25)
            if step == 3:  # ... and an in-place edit of one parameter's current array
                params[1].data[...] = 7.0
                twins[1].data[...] = 7.0
            assert_same_parameters_and_state(opt, params, oracle, twins)

    @pytest.mark.parametrize("name", ["sgd-momentum", "adamw", "lamb"])
    def test_moment_rebound_from_outside_is_picked_up(self, name):
        params, twins, opt, oracle = self.pair(name)
        for step in range(5):
            self.step_both(opt, params, oracle, twins, seed=step)
            if step == 1:
                key = "momentum_buffer" if name.startswith("sgd") else "exp_avg"
                foreign = np.full(params[0].data.shape, 0.5, dtype=np.float32)
                opt.state_for(params[0])[key] = foreign
                oracle.state[id(twins[0])][key] = foreign.copy()
            assert_same_parameters_and_state(opt, params, oracle, twins)
        np.testing.assert_array_equal(foreign, 0.5)  # copied in, never written

    @pytest.mark.parametrize("name", ["sgd-momentum", "adamw", "lamb"])
    def test_load_state_dict_into_a_stepped_optimizer_and_nobody_elses_array_is_written(self, name):
        params, twins, opt, oracle = self.pair(name)
        for step in range(3):
            self.step_both(opt, params, oracle, twins, seed=step)
        returned = opt.state_dict()
        frozen = {index: copied(entry) for index, entry in returned["state"].items()}
        snapshot = [param.data.copy() for param in params]
        for step in range(3, 5):  # moves on: the flat buffers no longer hold what ``returned`` does
            self.step_both(opt, params, oracle, twins, seed=step)
        # Back to the checkpoint, on the optimizer that kept stepping (its flat buffers are stale now).
        opt.load_state_dict(returned)
        for param, twin, data in zip(params, twins, snapshot):
            param.data, twin.data = data.copy(), data.copy()
        for index, entry in returned["state"].items():
            oracle.state[id(twins[index])] = copied(entry)
        for step in range(5, 8):
            self.step_both(opt, params, oracle, twins, seed=step)
            assert_same_parameters_and_state(opt, params, oracle, twins)
        for index, entry in frozen.items():  # neither the dict state_dict() returned nor the one loaded was written
            for key, value in entry.items():
                np.testing.assert_array_equal(returned["state"][index][key], value)

    def test_param_group_added_after_the_first_step_is_stepped(self):
        params, twins, opt, oracle = self.pair("lamb")
        self.step_both(opt, params, oracle, twins, seed=0)
        late, late_twin = (Parameter(np.full((3, 3), 2.0, dtype=np.float32)) for _ in range(2))
        opt.add_param_group({"params": [late], "lr": 0.5})
        oracle.param_groups.append({**oracle.param_groups[0], "params": [late_twin], "lr": 0.5})
        params, twins = params + [late], twins + [late_twin]
        for step in range(1, 4):
            self.step_both(opt, params, oracle, twins, seed=step)
            assert_same_parameters_and_state(opt, params, oracle, twins)
        assert opt.state_for(late)["step"] == 3 and opt.state_for(params[0])["step"] == 4

    def test_checkpoint_in_the_per_parameter_format_of_the_loop_resumes_bit_identically(self):
        """Standalone arrays per parameter, as every commit before the fused step wrote them."""
        params, twins, opt, oracle = self.pair("lamb")
        for step in range(3):
            for twin in twins:
                twin.grad = np.random.default_rng(step).standard_normal(twin.data.shape).astype(np.float32)
            oracle.step()
        written = {
            "state": {index: dict(oracle.state[id(twin)]) for index, twin in enumerate(twins)},
            "param_groups": [{**FUSED_CASES["lamb"][1], "betas": (0.9, 0.999), "params": list(range(len(twins)))}],
        }
        opt.load_state_dict(written)
        for param, twin in zip(params, twins):
            param.data = twin.data.copy()
        for step in range(3, 6):
            self.step_both(opt, params, oracle, twins, seed=step)
            assert_same_parameters_and_state(opt, params, oracle, twins)


class TestParamGroups:
    def test_per_group_learning_rates(self):
        a, b = Parameter(np.array([1.0], dtype=np.float32)), Parameter(np.array([1.0], dtype=np.float32))
        a.grad = np.array([1.0], dtype=np.float32)
        b.grad = np.array([1.0], dtype=np.float32)
        opt = optim.SGD([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.5}], lr=0.1)
        opt.step()
        assert a.data[0] == pytest.approx(0.9)
        assert b.data[0] == pytest.approx(0.5)

    def test_zero_grad(self):
        param = Parameter(np.zeros(3))
        param.grad = np.ones(3, dtype=np.float32)
        opt = optim.SGD([param], lr=0.1)
        opt.zero_grad()
        assert param.grad is None

    def test_grad_norm(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 2.0, dtype=np.float32)
        assert optim.SGD([param], lr=0.1).grad_norm() == pytest.approx(4.0)


class TestSchedulers:
    def _make(self, scheduler_cls, **kwargs):
        param = Parameter(np.zeros(1))
        opt = optim.SGD([param], lr=1.0)
        return opt, scheduler_cls(opt, **kwargs)

    def test_warmup_ramps_linearly(self):
        opt, sched = self._make(optim.WarmupConstant, warmup_steps=10)
        lrs = []
        for _ in range(10):
            sched.step()
            lrs.append(opt.param_groups[0]["lr"])
        assert lrs[0] < lrs[4] < lrs[-1]
        assert lrs[-1] == pytest.approx(1.0)

    def test_cosine_decays_to_min(self):
        opt, sched = self._make(optim.WarmupCosine, total_steps=100, warmup_steps=0, min_factor=0.1)
        for _ in range(100):
            sched.step()
        assert opt.param_groups[0]["lr"] == pytest.approx(0.1, abs=1e-2)

    def test_multistep_decays_at_milestones(self):
        opt, sched = self._make(optim.WarmupMultiStep, milestones=[5, 10], gamma=0.1)
        for _ in range(6):
            sched.step()
        assert opt.param_groups[0]["lr"] == pytest.approx(0.1, rel=1e-5)
        for _ in range(5):
            sched.step()
        assert opt.param_groups[0]["lr"] == pytest.approx(0.01, rel=1e-5)

    def test_polynomial_reaches_end_factor(self):
        opt, sched = self._make(optim.WarmupPolynomial, total_steps=50, warmup_steps=5, power=1.0)
        for _ in range(60):
            sched.step()
        assert opt.param_groups[0]["lr"] == pytest.approx(0.0, abs=1e-6)


class TestGradScaler:
    def test_scale_and_unscale_roundtrip(self):
        param = Parameter(np.zeros(3))
        opt = optim.SGD([param], lr=0.1)
        scaler = optim.GradScaler(init_scale=2.0 ** 8)
        loss = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        scaled = scaler.scale(loss)
        assert scaled.numpy()[0] == pytest.approx(256.0)
        param.grad = np.full(3, 256.0, dtype=np.float32)
        scaler.unscale_(opt)
        np.testing.assert_allclose(param.grad, 1.0)

    def test_step_skipped_on_overflow_and_scale_backs_off(self):
        param = Parameter(np.zeros(1))
        opt = optim.SGD([param], lr=0.1)
        scaler = optim.GradScaler(init_scale=2.0 ** 4)
        param.grad = np.array([np.inf], dtype=np.float32)
        stepped = scaler.step(opt)
        scaler.update()
        assert not stepped
        assert param.data[0] == 0.0
        assert scaler.get_scale() == pytest.approx(8.0)

    def test_scale_grows_after_interval(self):
        param = Parameter(np.zeros(1))
        opt = optim.SGD([param], lr=0.1)
        scaler = optim.GradScaler(init_scale=4.0, growth_interval=2)
        for _ in range(2):
            param.grad = np.array([1.0], dtype=np.float32) * scaler.get_scale()
            scaler.step(opt)
            scaler.update()
        assert scaler.get_scale() == pytest.approx(8.0)

    @pytest.mark.parametrize("poison", [None, 0, 3])
    def test_unscale_per_run_is_the_per_parameter_expression(self, poison):
        """One scale pass and one finiteness reduction per run: same bits, same ``found_inf``, float32 installed."""
        rng = np.random.default_rng(4)
        dtypes = [np.float16, np.float32, np.float32, np.float64, np.float16]
        params = [Parameter(np.zeros(shape, dtype=dtype)) for shape, dtype in zip([(3, 2), (4,), (), (2, 2), (5,)], dtypes)]
        grads = [np.asarray(rng.standard_normal(p.data.shape) * 64.0, dtype=p.data.dtype) for p in params]
        grads[2] = None  # a parameter without a gradient stays without one
        if poison is not None:
            grads[poison].reshape(-1)[0] = np.inf
        for param, grad in zip(params, grads):
            param.grad = grad
        kept = [None if grad is None else grad.copy() for grad in grads]
        opt = optim.SGD(params, lr=0.1)
        scaler = optim.GradScaler(init_scale=2.0 ** 6)
        scaler.unscale_(opt)
        assert scaler._found_inf == (poison is not None)
        for param, grad, copy in zip(params, grads, kept):
            if grad is None:
                assert param.grad is None
                continue
            assert param.grad.dtype == np.float32 and param.grad.shape == param.data.shape
            np.testing.assert_array_equal(param.grad, copy.astype(np.float32) * (1.0 / 2.0 ** 6))
            np.testing.assert_array_equal(grad, copy)  # the array the gradient was bound to is not written
        before = [param.data.copy() for param in params]
        assert scaler.step(opt) == (poison is None)
        assert all(np.array_equal(p.data, b) for p, b in zip(params, before)) == (poison is not None)

    def test_disabled_scaler_is_identity(self):
        scaler = optim.GradScaler(enabled=False)
        assert scaler.get_scale() == 1.0
        loss = Tensor([2.0])
        assert scaler.scale(loss) is loss


class TestOptimizerStateDict:
    """First-order optimizer state serializes into a complete checkpoint."""

    def _make_params(self, seed=0, shapes=((4, 3), (3,))):
        rng = np.random.default_rng(seed)
        return [Parameter(rng.random(shape).astype(np.float32)) for shape in shapes]

    def _step_with_grads(self, opt, params, seed):
        rng = np.random.default_rng(seed)
        for param in params:
            param.grad = rng.standard_normal(param.data.shape).astype(np.float32)
        opt.step()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: optim.SGD(p, lr=0.1, momentum=0.9, nesterov=True),
            lambda p: optim.Adam(p, lr=0.01, weight_decay=0.01),
            lambda p: optim.AdamW(p, lr=0.01, weight_decay=0.01),
            lambda p: optim.LAMB(p, lr=0.01),
        ],
        ids=["sgd-momentum", "adam", "adamw", "lamb"],
    )
    def test_resume_is_bit_identical(self, factory):
        params_a = self._make_params()
        opt_a = factory(params_a)
        for step in range(3):
            self._step_with_grads(opt_a, params_a, seed=step)
        checkpoint = opt_a.state_dict()
        snapshot = [p.data.copy() for p in params_a]

        # Fresh optimizer over a fresh copy of the parameters.
        params_b = self._make_params()
        for param, data in zip(params_b, snapshot):
            param.data = data.copy()
        opt_b = factory(params_b)
        opt_b.load_state_dict(checkpoint)

        # Continue both for two more steps with identical gradients.
        for step in range(3, 5):
            self._step_with_grads(opt_a, params_a, seed=step)
            self._step_with_grads(opt_b, params_b, seed=step)
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a.data, b.data)

    def test_state_dict_copies_buffers(self):
        params = self._make_params()
        opt = optim.SGD(params, lr=0.1, momentum=0.9)
        self._step_with_grads(opt, params, seed=0)
        checkpoint = opt.state_dict()
        buffer = checkpoint["state"][0]["momentum_buffer"]
        buffer[:] = 1e9  # mutating the checkpoint must not corrupt the optimizer
        assert not np.any(opt.state_dict()["state"][0]["momentum_buffer"] == 1e9)

    def test_group_hyperparameters_restore(self):
        params = self._make_params()
        opt = optim.SGD(params, lr=0.1, momentum=0.9)
        state = opt.state_dict()
        opt2 = optim.SGD(self._make_params(), lr=0.5, momentum=0.0)
        opt2.load_state_dict(state)
        assert opt2.param_groups[0]["lr"] == 0.1
        assert opt2.param_groups[0]["momentum"] == 0.9

    def test_group_structure_mismatch_raises(self):
        opt = optim.SGD(self._make_params(), lr=0.1)
        other = optim.SGD(self._make_params(shapes=((4, 3),)), lr=0.1)
        with pytest.raises(ValueError, match="parameters"):
            other.load_state_dict(opt.state_dict())

    def test_buffer_shape_mismatch_raises(self):
        params = self._make_params()
        opt = optim.SGD(params, lr=0.1, momentum=0.9)
        self._step_with_grads(opt, params, seed=0)
        state = opt.state_dict()
        state["state"][0]["momentum_buffer"] = np.zeros((2, 2), dtype=np.float32)
        fresh = optim.SGD(self._make_params(), lr=0.1, momentum=0.9)
        with pytest.raises(ValueError, match="shape"):
            fresh.load_state_dict(state)

    def test_trainer_checkpoint_resumes_momentum_bitwise(self):
        from repro.models import MLP
        from repro.training import Trainer

        rng = np.random.default_rng(5)
        x = rng.standard_normal((32, 6)).astype(np.float32)
        y = (x @ rng.standard_normal((6, 3)).astype(np.float32)).argmax(axis=1)
        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            features, labels = batch
            return loss_fn(m(Tensor(features)), labels)

        def build():
            model = MLP(6, [10], 3, rng=np.random.default_rng(0))
            return Trainer(model, optim.SGD(model.parameters(), lr=0.1, momentum=0.9), forward_loss)

        trainer = build()
        for _ in range(3):
            trainer.train_step((x, y))
        state = trainer.state_dict()
        assert state["optimizer"]["state"], "momentum buffers must be checkpointed"

        resumed = build()
        resumed.load_state_dict(state)
        trainer.train_step((x, y))
        resumed.train_step((x, y))
        for a, b in zip(trainer.model.parameters(), resumed.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("name", ["sgd-momentum", "lamb"])
    def test_trainer_rolled_back_in_place_repeats_its_trajectory(self, name):
        """``Module.load_state_dict`` and ``Optimizer.load_state_dict`` into objects that kept stepping."""
        from repro.models import MLP
        from repro.training import Trainer

        rng = np.random.default_rng(5)
        x = rng.standard_normal((32, 6)).astype(np.float32)
        y = (x @ rng.standard_normal((6, 3)).astype(np.float32)).argmax(axis=1)
        loss_fn = nn.CrossEntropyLoss()
        model = MLP(6, [10], 3, rng=np.random.default_rng(0))
        optimizer = FUSED_CASES[name][0](model.parameters(), **FUSED_CASES[name][1])
        trainer = Trainer(model, optimizer, lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]))

        def two_more_steps():
            for _ in range(2):
                trainer.train_step((x, y))
            return np.concatenate([param.data.ravel() for param in model.parameters()])

        for _ in range(3):
            trainer.train_step((x, y))
        state = trainer.state_dict()
        first = two_more_steps()
        trainer.load_state_dict(state)
        np.testing.assert_array_equal(two_more_steps(), first)

    def test_trainer_rejects_checkpoint_without_optimizer_state(self):
        from repro.models import MLP
        from repro.training import Trainer

        model = MLP(6, [10], 3, rng=np.random.default_rng(0))
        trainer = Trainer(
            model,
            optim.SGD(model.parameters(), lr=0.1),
            lambda m, batch: nn.CrossEntropyLoss()(m(Tensor(batch[0])), batch[1]),
        )
        state = trainer.state_dict()
        del state["optimizer"]
        with pytest.raises(ValueError, match="optimizer"):
            trainer.load_state_dict(state)
