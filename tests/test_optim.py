"""Tests for first-order optimizers, LR schedulers and the GradScaler."""

import numpy as np
import pytest

from repro import nn, optim
from repro.nn.module import Parameter
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


def lamb_reference_step(data, grad, state, lr, weight_decay, betas=(0.9, 0.999), eps=1e-6, clamp=(0.0, 10.0)):
    """One LAMB update as the plain expression ``LAMB.step`` ran before it went in place (the oracle)."""
    beta1, beta2 = betas
    low, high = clamp
    out_dtype = data.dtype
    grad = grad.astype(np.float32)
    data = data.astype(np.float32)
    if state is None:
        state = {"step": 0, "exp_avg": np.zeros_like(data), "exp_avg_sq": np.zeros_like(data)}
    state["step"] += 1
    step = state["step"]
    state["exp_avg"] = beta1 * state["exp_avg"] + (1 - beta1) * grad
    state["exp_avg_sq"] = beta2 * state["exp_avg_sq"] + (1 - beta2) * grad * grad
    m_hat = state["exp_avg"] / (1 - beta1 ** step)
    v_hat = state["exp_avg_sq"] / (1 - beta2 ** step)
    update = m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay != 0.0:
        update = update + weight_decay * data
    weight_norm = float(np.linalg.norm(data))
    update_norm = float(np.linalg.norm(update))
    if weight_norm > 0.0 and update_norm > 0.0:
        trust_ratio = weight_norm / update_norm
        if high > 0:
            trust_ratio = min(max(trust_ratio, low), high)
    else:
        trust_ratio = 1.0
    return (data - lr * trust_ratio * update).astype(out_dtype), state


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
        """25 steps of ``LAMB.step`` (in-place moments, one scratch) against the expression it replaced."""
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
