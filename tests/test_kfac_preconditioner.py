"""Tests for the KFAC preconditioner (single-process path, Listing 1 semantics)."""

import contextlib
import threading
import time
from concurrent.futures import Future, wait

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import run_spmd
from repro.experiments import build_workload
from repro.kfac import KFAC, EigenSolveStrategy, KFACConfig, kmath
from repro.kfac.kernels import KernelBackend
from repro.kfac.layers import KFACLayer
from repro.models import MLP, bert_tiny
from repro.observability import MetricsReport
from repro.tensor import Tensor

from counters import event_total, layer_events

RNG = np.random.default_rng(33)


def make_problem(seed=0, samples=256, in_dim=10, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


def training_loop(model, preconditioner, optimizer, x, y, steps=30, batch=64, seed=0):
    rng = np.random.default_rng(seed)
    loss_fn = nn.CrossEntropyLoss()
    losses = []
    for _ in range(steps):
        idx = rng.integers(0, len(x), batch)
        optimizer.zero_grad()
        loss = loss_fn(model(Tensor(x[idx])), y[idx])
        loss.backward()
        if preconditioner is not None:
            preconditioner.step(lr=optimizer.param_groups[0]["lr"])
        optimizer.step()
        losses.append(loss.item())
    return losses


@contextlib.contextmanager
def blocked_eigen_worker(pre):
    """Occupy ``pre``'s eigen worker until the block exits: every solve submitted meanwhile waits in its queue."""
    release = threading.Event()
    blocker = pre.refresh.defer(("blocker", "a"), lambda: release.wait(10))  # products run ahead of solves
    try:
        yield
    finally:
        release.set()
        blocker.future.result(timeout=10)


class TestConstruction:
    def test_registers_linear_and_conv_layers(self):
        model = MLP(8, [16], 4, rng=RNG)
        pre = KFAC(model)
        assert len(pre.layers) == 2

    def test_skip_modules_excluded(self):
        model = bert_tiny(vocab_size=30, rng=RNG)
        pre_all = KFAC(model)
        pre_skipped = KFAC(model, skip_modules=model.kfac_excluded_modules())
        # The skip list holds the MLM head (Linear) and the token/position
        # embeddings, but only the head is a registered layer type: no
        # Embedding is registered either way.  The embedding LayerNorm is
        # *not* excluded: LayerNorm is a registered layer type and only the
        # embedding tables / head are on the skip list.
        assert len(pre_skipped.layers) == len(pre_all.layers) - 1
        assert all("mlm_head" not in name for name in pre_skipped.layers)
        assert not any(isinstance(layer.module, nn.Embedding) for layer in pre_all.layers.values())
        assert any(isinstance(layer.module, nn.LayerNorm) for layer in pre_skipped.layers.values())

    def test_model_without_supported_layers_raises(self):
        with pytest.raises(ValueError):
            KFAC(nn.BatchNorm2d(4, affine=False))

    def test_invalid_hyperparameters(self):
        model = MLP(4, [8], 2, rng=RNG)
        with pytest.raises(ValueError):
            KFAC(model, factor_update_freq=0)
        with pytest.raises(ValueError):
            KFAC(model, damping=0.0)
        with pytest.raises(ValueError):
            KFAC(model, factor_decay=0.0)
        with pytest.raises(TypeError):
            KFAC(model, momentum=0.9)  # not a KFACConfig field
        with pytest.raises(TypeError):
            KFAC(model, KFACConfig(), damping=0.2)  # a config or keyword hyperparameters, not both

    def test_precision_from_string(self):
        model = MLP(4, [8], 2, rng=RNG)
        pre = KFAC(model, precision="fp16")
        assert pre.precision.factor_dtype == np.float16

    def test_single_process_properties(self):
        model = MLP(4, [8], 2, rng=RNG)
        pre = KFAC(model, grad_worker_frac=1.0)
        assert pre.rank == 0 and pre.world_size == 1
        assert pre.grad_worker_frac == 1.0
        assert pre.plan.scheme == "COMM-OPT"


class TestStepMechanics:
    def test_step_modifies_gradients(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(0))
        x, y = make_problem(1, in_dim=6)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        loss = nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32])
        loss.backward()
        original = model.layers[0].weight.grad.copy()
        pre.step(lr=0.1)
        assert not np.allclose(model.layers[0].weight.grad, original)

    def test_a_step_that_folds_nothing_registers_no_tensor_hook(self, monkeypatch):
        """G capture is armed per call only on steps that accumulate: at cadence 2, one output hook per layer, then none."""
        workload = build_workload("cifar_resnet", seed=3)
        pre = KFAC(workload.model, factor_update_freq=2, inv_update_freq=4)
        optimizer = optim.SGD(workload.model.parameters(), lr=0.05)
        registered = []
        register = Tensor.register_hook
        monkeypatch.setattr(Tensor, "register_hook", lambda tensor, hook: registered.append(hook) or register(tensor, hook))
        counts = []
        for step, batch in zip(range(4), workload.train_loader):
            registered.clear()
            optimizer.zero_grad()
            workload.forward_loss(workload.model, batch).backward()
            counts.append(len(registered))
            assert len(pre.plan.actions(step).fold) == (len(pre.layers) if step % 2 == 0 else 0)
            pre.step(lr=optimizer.param_groups[0]["lr"])
            optimizer.step()
        pre.remove()
        assert counts == [len(pre.layers), 0, len(pre.layers), 0]

    def test_preconditioned_gradient_is_descent_direction(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(0))
        x, y = make_problem(2, in_dim=6)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        loss = nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64])
        loss.backward()
        grads_before = {id(p): p.grad.copy() for p in model.parameters() if p.grad is not None}
        pre.step(lr=0.1)
        inner = sum(
            float(np.sum(grads_before[id(p)] * p.grad)) for p in model.parameters() if id(p) in grads_before
        )
        assert inner > 0  # preconditioning never reverses the descent direction

    def test_update_interval_reuses_eigen_decompositions(self):
        model = MLP(4, [8], 2, rng=np.random.default_rng(0))
        x, y = make_problem(3, in_dim=4, classes=2)
        pre = KFAC(model, factor_update_freq=5, inv_update_freq=10, solve_strategy="eigen")
        opt = optim.SGD(model.parameters(), lr=0.05)
        loss_fn = nn.CrossEntropyLoss()
        assert sorted(pre.plan.refresh_offsets.values()) == [1, 6]  # one layer per fold-free step
        eigens = {name: [] for name in pre.layers}
        for step in range(18):
            opt.zero_grad()
            loss_fn(model(Tensor(x[:32])), y[:32]).backward()
            pre.step(lr=opt.param_groups[0]["lr"])
            opt.step()
            for name, layer in pre.layers.items():
                # The G factor depends on the evolving model, so its decomposition
                # changes whenever it is recomputed (the A factor of the first layer
                # would not, since the same input batch is fed every step).
                eigens[name].append(pre.solvers[name].eigen_g.eigenvalues.copy())
        # Recomputed at step 0 and on the layer's offset in the plan: 6 and 16, or (1 is passed over) 11.
        for name, offset in pre.plan.refresh_offsets.items():
            refreshed = [step for step in range(1, 18) if not np.array_equal(eigens[name][step], eigens[name][step - 1])]
            assert refreshed == [step for step in range(6, 18) if step % 10 == offset], name
            assert all(name in pre.plan.actions(step).refresh for step in refreshed)

    def test_steps_counter_increments(self):
        model = MLP(4, [8], 2, rng=RNG)
        x, y = make_problem(4, in_dim=4, classes=2)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        loss_fn = nn.CrossEntropyLoss()
        for expected in range(1, 4):
            model.zero_grad()
            loss_fn(model(Tensor(x[:16])), y[:16]).backward()
            pre.step(lr=0.1)
            assert pre.steps == expected

    def test_step_without_forward_data_raises(self):
        model = MLP(4, [8], 2, rng=RNG)
        pre = KFAC(model)
        with pytest.raises(RuntimeError):
            pre.step(lr=0.1)

    def test_the_kl_clip_takes_the_rate_each_step_is_passed(self):
        """``step(lr)`` is the clip's one source of the rate: a bare step is refused and no copy is kept.

        With the clip active, ``lr · ν`` is fixed, so a step at five times the rate writes a fifth of
        the gradient, and a later step at the first rate writes the first step's bits again."""
        x, y = make_problem(5, in_dim=4, classes=2)
        written = []
        for lr in (0.1, 0.5, 0.1):
            model = MLP(4, [8], 2, rng=np.random.default_rng(5))
            pre = KFAC(model, kl_clip=1e-6, factor_update_freq=1, inv_update_freq=1)
            nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()
            with pytest.raises(TypeError):
                pre.step()
            pre.step(lr=lr)
            assert not hasattr(pre, "lr") and "lr" not in pre.state_dict()["config"]
            written.append(np.concatenate([p.grad.ravel() for p in model.parameters()]))
        np.testing.assert_array_equal(written[0], written[2])
        np.testing.assert_allclose(5.0 * written[1], written[0], rtol=1e-5, atol=1e-12)
        with pytest.raises(TypeError):
            KFAC(MLP(4, [8], 2, rng=np.random.default_rng(5)), lr=0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
    def test_a_non_finite_or_negative_lr_is_refused_before_any_state_is_touched(self, lr):
        """A NaN lr would turn the KL clip off and an infinite one zero every gradient; a zero lr (warm-up) is legal."""
        model = MLP(4, [8], 2, rng=np.random.default_rng(5))
        x, y = make_problem(5, in_dim=4, classes=2)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()
        grads = [p.grad.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match="^lr must be finite and >= 0"):
            pre.step(lr=lr)
        assert pre.steps == 0
        assert all(np.array_equal(p.grad, grad) for p, grad in zip(model.parameters(), grads))
        assert all(layer.factor_a is None for layer in pre.layers.values())
        pre.step(lr=0.0)
        assert pre.steps == 1

    def test_profiler_records_all_stages(self):
        """The Figure-7 stage profile is read off the tracer's ``kfac/<stage>`` spans."""
        model = MLP(4, [8], 2, rng=RNG)
        x, y = make_problem(7, in_dim=4, classes=2)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        pre.comm.tracer.enabled = True
        nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()
        pre.step(lr=0.1)
        report = MetricsReport.from_tracers(pre.comm.tracer)
        stages = (
            "factor_compute", "factor_allreduce", "eigen_decomposition", "eigen_broadcast",
            "precondition", "grad_broadcast", "scale_and_update",
        )
        for stage in stages:
            assert report.count(f"kfac/{stage}") == 1
        summary = report.stage_summary()
        assert set(summary) == {"step", *stages}
        assert all(summary[stage] > 0 for stage in stages)
        assert report.stage_summary(per_call=False)["precondition"] == report.total("kfac/precondition")
        with pytest.raises(TypeError):
            KFAC(model, profiler=object())

    def test_kl_clip_bounds_update_magnitude(self):
        model_clipped = MLP(6, [12], 3, rng=np.random.default_rng(1))
        model_unclipped = MLP(6, [12], 3, rng=np.random.default_rng(1))
        model_unclipped.load_state_dict(model_clipped.state_dict())
        x, y = make_problem(8, in_dim=6)
        for model, kl_clip in ((model_clipped, 1e-6), (model_unclipped, 1e6)):
            pre = KFAC(model, kl_clip=kl_clip, factor_update_freq=1, inv_update_freq=1)
            loss = nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64])
            loss.backward()
            pre.step(lr=1.0)
        clipped_norm = np.linalg.norm(model_clipped.layers[0].weight.grad)
        unclipped_norm = np.linalg.norm(model_unclipped.layers[0].weight.grad)
        assert clipped_norm < unclipped_norm

    def test_grad_scaler_integration(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(2))
        x, y = make_problem(9, in_dim=6)
        scaler = optim.GradScaler(init_scale=2.0 ** 8)
        opt = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        pre = KFAC(model, grad_scaler=scaler, factor_update_freq=1, inv_update_freq=1)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(3):
            opt.zero_grad()
            loss = loss_fn(model(Tensor(x[:32])), y[:32])
            scaler.scale(loss).backward()
            scaler.unscale_(opt)
            pre.step(lr=opt.param_groups[0]["lr"])
            scaler.step(opt)
            scaler.update()
        for layer in pre.layers.values():
            assert np.all(np.isfinite(layer.factor_g.astype(np.float64)))
            # Unscaled G factors stay O(1)-ish rather than O(scale^2).
            assert np.abs(layer.factor_g.astype(np.float64)).max() < 1e4


class _TextNet(nn.Module):
    """Embedding -> LayerNorm -> Linear: the table left to the optimizer, then two of the three handler families."""

    def __init__(self, rng):
        super().__init__()
        self.embed = nn.Embedding(10, 6, rng=rng)
        self.norm = nn.LayerNorm(6)
        self.head = nn.Linear(6, 4, rng=rng)

    def forward(self, ids):
        return self.head(self.norm(self.embed(ids)))


class TestPackedStorageOnTheStepPath:
    """A dense factor is its triangle from the hook to ``syevd``: nothing on the default path needs the square."""

    @staticmethod
    def run(monkeypatch, steps=3, **config):
        from repro.kfac import FactorRepr

        calls = []
        to_dense = FactorRepr.to_dense
        monkeypatch.setattr(FactorRepr, "to_dense", lambda self, packed: calls.append(self) or to_dense(self, packed))
        rng = np.random.default_rng(0)
        model, ids = _TextNet(rng), rng.integers(0, 10, size=(8, 5))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=2, **config)
        for _ in range(steps):
            model.zero_grad()
            out = model(ids)
            (out * out).mean().backward()
            pre.step(lr=0.1)
        return pre, calls

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_default_step_never_expands_a_factor(self, monkeypatch, solver):
        pre, calls = self.run(monkeypatch, solve_strategy=solver)
        restored = KFAC(_TextNet(np.random.default_rng(0)), factor_update_freq=1, inv_update_freq=2, solve_strategy=solver)
        restored.load_state_dict(pre.state_dict())  # nor does a checkpoint round trip
        assert calls == []
        head = pre.layers["head"]
        assert head.factor_a.shape == (7 * 8 // 2,) and head.factor_g.shape == (4 * 5 // 2,)
        if solver == "eigen":
            assert pre.solvers["head"].eigen_a.eigenvectors.shape == (7, 7)  # the eigenbasis is not symmetric: it stays square
        else:
            held = pre.solvers["head"].inv_a  # the inverse travels packed and is held as one triangle
            assert held.dim == 7 and held.packed().shape == (7 * 8 // 2,) and not isinstance(held, np.ndarray)
        assert pre.memory_usage()["factors"] == sum(
            getattr(layer, f"factor_{which}").nbytes for layer in pre.layers.values() for which in "ag"
        )

    def test_conv_factors_follow_the_square_path_to_float32_rounding(self):
        """Conv2d windows need not be symmetric to the last bit (no ``syrk`` guarantee on a strided
        product), so against the square path, which symmetrises, the claim is rounding, not bits."""
        from kernel_oracle import use_square_path

        def train(oracle):
            rng = np.random.default_rng(0)
            model = nn.Sequential(
                nn.Conv2d(2, 5, 3, padding=1, rng=rng), nn.ReLU(), nn.Conv2d(5, 40, 3, stride=2, rng=rng),
                nn.GlobalAvgPool2d(), nn.Linear(40, 3, rng=rng),
            )  # fmt: skip
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=2)
            if oracle:
                use_square_path(pre)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            x = Tensor(np.random.default_rng(1).standard_normal((8, 2, 9, 9)).astype(np.float32))
            for _ in range(5):
                optimizer.zero_grad()
                out = model(x)
                (out * out).mean().backward()
                pre.step(lr=optimizer.param_groups[0]["lr"])
                optimizer.step()
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        np.testing.assert_allclose(train(False), train(True), rtol=1e-4, atol=1e-6)


class TestGradientWriteBack:
    """``KFAC.step()`` leaves every gradient where it was: same buffer, same dtype, contiguous."""

    @staticmethod
    def preconditioned(kind):
        """A model with K-FAC registered and one forward / backward done: ``(model, preconditioner)``."""
        rng = np.random.default_rng(0)
        if kind == "text":
            model, inputs = _TextNet(rng), rng.integers(0, 10, size=(8, 5))
        else:
            model = nn.Sequential(nn.Conv2d(2, 3, 3, padding=1, rng=rng), nn.GlobalAvgPool2d(), nn.Linear(3, 2, rng=rng))
            inputs = Tensor(rng.standard_normal((4, 2, 5, 5)).astype(np.float32))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        out = model(inputs)
        (out * out).mean().backward()
        return model, pre

    @pytest.mark.parametrize("kind", ["text", "conv"])
    def test_linear_conv_and_layernorm_gradients_stay_contiguous_in_their_dtype(self, kind):
        model, pre = self.preconditioned(kind)
        families = {type(layer).__name__ for layer in pre.layers.values()}
        if kind == "text":
            assert families == {"KFACLayerNormLayer", "KFACLinearLayer"}
        else:
            assert families == {"KFACConv2dLayer", "KFACLinearLayer"}
        preconditioned = [param for layer in pre.layers.values() for param in layer.module.parameters()]
        buffers = {id(param): param.grad for param in preconditioned}
        before = {id(param): param.grad.copy() for param in preconditioned}
        pre.step(lr=0.1)
        in_place = 0
        for param in preconditioned:
            grad, buffer = param.grad, buffers[id(param)]
            assert grad.flags.c_contiguous and grad.dtype == before[id(param)].dtype and grad.shape == param.data.shape
            assert grad.base is None or grad.base.size == grad.size  # no slice of a larger matrix kept alive
            assert not np.array_equal(grad, before[id(param)])
            if buffer.flags.c_contiguous:  # autograd leaves a Conv2d weight gradient in a permuted layout
                assert grad is buffer  # written where it lay: nothing allocated, nothing rebound
                in_place += 1
            else:
                np.testing.assert_array_equal(buffer, before[id(param)])
        assert in_place >= len(buffers) - 1

    def test_a_gradient_that_cannot_be_written_in_place_is_replaced_by_a_contiguous_copy(self):
        """Read-only, Fortran-ordered and float64 gradients: same values as the in-place write, nobody's array written."""
        reference, reference_pre = self.preconditioned("text")
        reference_pre.step(lr=0.1)
        model, pre = self.preconditioned("text")
        frozen = model.norm.bias.grad
        frozen.flags.writeable = False
        fortran = model.head.weight.grad = np.asfortranarray(model.head.weight.grad)
        model.norm.weight.grad = model.norm.weight.grad.astype(np.float64)
        kept = [frozen.copy(), fortran.copy()]
        pre.step(lr=0.1)
        np.testing.assert_array_equal(frozen, kept[0])
        np.testing.assert_array_equal(fortran, kept[1])
        assert model.norm.bias.grad is not frozen and model.head.weight.grad is not fortran
        assert model.norm.weight.grad.dtype == np.float64
        for param, twin in zip(model.parameters(), reference.parameters()):
            assert param.grad.flags.c_contiguous and param.grad.flags.writeable
            np.testing.assert_array_equal(param.grad, twin.grad)


class TestMathematicalCorrectness:
    def test_matches_explicit_fisher_inverse_on_linear_model(self):
        """For a single Linear layer the eigen path's preconditioned gradient must equal
        ((Â + π√γ I) ⊗ (Ĝ + √γ/π I))⁻¹ applied to the gradient, where Â and Ĝ are the
        layer's empirical Kronecker factors (Eqs. 9-17) and π their trace ratio."""
        rng = np.random.default_rng(0)
        model = nn.Linear(5, 3, bias=True, rng=rng)
        x = rng.standard_normal((64, 5)).astype(np.float32)
        y = rng.integers(0, 3, 64)
        damping = 0.01
        pre = KFAC(
            model, damping=damping, kl_clip=1e12, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen"
        )
        loss = nn.CrossEntropyLoss()(model(Tensor(x)), y)
        loss.backward()
        grad_matrix = np.concatenate([model.weight.grad, model.bias.grad.reshape(-1, 1)], axis=1).astype(np.float64)

        pre.step(lr=1e-6)
        result = np.concatenate([model.weight.grad, model.bias.grad.reshape(-1, 1)], axis=1).astype(np.float64)

        handler = next(iter(pre.layers.values()))
        a_factor = handler.a_repr.to_dense(handler.factor_a).astype(np.float64)
        g_factor = handler.g_repr.to_dense(handler.factor_g).astype(np.float64)
        # Row-major vec: vec(grad) = grad.reshape(-1) with grad of shape (out, in+1);
        # the corresponding Kronecker operator is G ⊗ A acting on vec(gradᵀ)... use
        # the equivalent matrix identity instead: solve via eigenbasis directly.
        ea, va = np.linalg.eigh(a_factor)
        eg, vg = np.linalg.eigh(g_factor)
        pi = np.sqrt((np.trace(a_factor) / len(a_factor)) / (np.trace(g_factor) / len(g_factor)))
        v1 = vg.T @ grad_matrix @ va
        v2 = v1 / np.outer(eg + np.sqrt(damping) / pi, ea + pi * np.sqrt(damping))
        expected = vg @ v2 @ va.T
        np.testing.assert_allclose(result, expected, rtol=5e-3, atol=1e-5)

    def test_inverse_path_matches_the_pi_damped_kronecker_inverse_on_linear_model(self):
        """The default path preconditions with ``(G + √γ/π I)⁻¹ ∇L (A + π√γ I)⁻¹`` (Eq. 12, factored damping)."""
        rng = np.random.default_rng(0)
        model = nn.Linear(5, 3, bias=True, rng=rng)
        x = rng.standard_normal((64, 5)).astype(np.float32)
        y = rng.integers(0, 3, 64)
        damping = 0.01
        pre = KFAC(model, damping=damping, kl_clip=1e12, factor_update_freq=1, inv_update_freq=1)
        nn.CrossEntropyLoss()(model(Tensor(x)), y).backward()
        grad_matrix = np.concatenate([model.weight.grad, model.bias.grad.reshape(-1, 1)], axis=1).astype(np.float64)
        pre.step(lr=1e-6)
        result = np.concatenate([model.weight.grad, model.bias.grad.reshape(-1, 1)], axis=1).astype(np.float64)

        handler = next(iter(pre.layers.values()))
        a_factor = handler.a_repr.to_dense(handler.factor_a).astype(np.float64)
        g_factor = handler.g_repr.to_dense(handler.factor_g).astype(np.float64)
        pi = np.sqrt((np.trace(a_factor) / 6) / (np.trace(g_factor) / 3))
        damped_a = a_factor + pi * np.sqrt(damping) * np.eye(6)
        damped_g = g_factor + np.sqrt(damping) / pi * np.eye(3)
        expected = np.linalg.solve(damped_g, grad_matrix) @ np.linalg.inv(damped_a)
        np.testing.assert_allclose(result, expected, rtol=5e-3, atol=1e-5)

    def test_quadratic_convergence_faster_than_sgd(self):
        """On the synthetic classification problem K-FAC reaches a lower loss
        than plain SGD in the same number of iterations (the Figure 1 claim)."""
        x, y = make_problem(11)
        model_sgd = MLP(10, [32], 3, rng=np.random.default_rng(5))
        model_kfac = MLP(10, [32], 3, rng=np.random.default_rng(5))
        model_kfac.load_state_dict(model_sgd.state_dict())

        sgd_losses = training_loop(model_sgd, None, optim.SGD(model_sgd.parameters(), lr=0.05, momentum=0.9), x, y, steps=40)
        kfac_losses = training_loop(
            model_kfac,
            KFAC(model_kfac, factor_update_freq=2, inv_update_freq=4),
            optim.SGD(model_kfac.parameters(), lr=0.05, momentum=0.9),
            x,
            y,
            steps=40,
        )
        assert np.mean(kfac_losses[-10:]) < np.mean(sgd_losses[-10:])

    def test_memory_usage_grows_with_eigen_cache(self):
        model = MLP(8, [16], 4, rng=RNG)
        x, y = make_problem(12, in_dim=8, classes=4)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")
        before = pre.memory_usage()
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.step(lr=0.1)
        after = pre.memory_usage()
        assert before["total"] == 0
        assert after["factors"] > 0 and after["eigen"] > 0
        assert after["total"] == after["factors"] + after["eigen"]

    def test_fp16_precision_reduces_memory(self):
        model32 = MLP(8, [16], 4, rng=np.random.default_rng(3))
        model16 = MLP(8, [16], 4, rng=np.random.default_rng(3))
        x, y = make_problem(13, in_dim=8, classes=4)
        results = {}
        for name, model, precision in (("fp32", model32, "fp32"), ("fp16", model16, "fp16")):
            pre = KFAC(model, precision=precision, factor_update_freq=1, inv_update_freq=1)
            nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
            pre.step(lr=0.1)
            results[name] = pre.memory_usage()["total"]
        assert results["fp16"] == results["fp32"] // 2

    @pytest.mark.parametrize("factor_update_freq, inv_update_freq", [(1, 1), (1, 3), (2, 4)])
    def test_the_cached_eigen_outer_product_changes_no_bit(self, factor_update_freq, inv_update_freq):
        """Section 4.4: the eigen path caches Eq. 16's damped outer product once per refresh.  On refresh steps and
        on the steps that reuse it, every preconditioned gradient is bitwise the contraction that forms the outer
        product afresh (``precondition_contract`` with none passed)."""
        x, y = make_problem(14, in_dim=6)
        model = MLP(6, [12, 8], 3, rng=np.random.default_rng(7))
        pre = KFAC(
            model, factor_update_freq=factor_update_freq, inv_update_freq=inv_update_freq, solve_strategy="eigen"
        )
        fresh, solved = KernelBackend(), []

        def checked(solver):
            solve = solver.solve

            def checked_solve(layer, grad, damping):
                cached = solve(layer, grad, damping)
                assert solver.inverse_outer is not None
                formed = fresh.precondition_contract(grad, solver.eigen_a, solver.eigen_g, damping)
                assert cached.tobytes() == formed.tobytes(), layer.name
                solved.append(layer.name)
                return cached

            return checked_solve

        for solver in pre.solvers.values():
            solver.solve = checked(solver)
        training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=7)
        assert solved == list(pre.layers) * 7
        pre.remove()


class TestEigenFailuresAreNamed:
    """A failed eigen solve says which layer and which factor, and replaces no layer's decomposition."""

    @staticmethod
    def warmed_up(corrupt):
        """A preconditioner two steps in (every layer holds factors and a decomposition), ``corrupt`` applied, then
        fresh statistics: the forward pass starts step 2's decompositions from the factors ``corrupt`` left."""
        model = MLP(40, [48, 36], 3, rng=np.random.default_rng(0))  # factor dims 41/48, 49/36, 37/3
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")
        x, y = make_problem(in_dim=40)
        training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=2)
        corrupt(pre)
        nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64]).backward()
        return pre

    @staticmethod
    def snapshot(pre):
        return {
            name: (layer.factor_a.copy(), layer.factor_g.copy(), pre.solvers[name].eigen_a, pre.solvers[name].eigen_g)
            for name, layer in pre.layers.items()
        }

    @staticmethod
    def assert_untouched(pre, before):
        for name, layer in pre.layers.items():
            factor_a, factor_g, eigen_a, eigen_g = before[name]
            np.testing.assert_array_equal(layer.factor_a, factor_a)
            np.testing.assert_array_equal(layer.factor_g, factor_g)
            assert pre.solvers[name].eigen_a is eigen_a and pre.solvers[name].eigen_g is eigen_g, name

    @pytest.mark.parametrize("which, dim", [("a", 37), ("g", 36)])
    def test_nan_in_a_running_factor_names_the_layer_and_the_factor(self, which, dim):
        name = "layers.4" if which == "a" else "layers.2"

        def poison(pre):
            getattr(pre.layers[name], f"factor_{which}")[7] = np.nan  # somewhere in the stored triangle

        pre = self.warmed_up(poison)
        before = self.snapshot(pre)
        message = rf"{which.upper()} factor of layer '{name}' failed: factor of dimension {dim} contains infs or NaNs"
        with pytest.raises(ValueError, match=message) as raised:
            pre.refresh.take()
        assert isinstance(raised.value.__cause__, ValueError)
        self.assert_untouched(pre, before)
        # The same through the public step: the decay fold keeps the NaN, the eigen stage names it.
        with pytest.raises(ValueError, match=rf"{which.upper()} factor of layer '{name}'"):
            pre.step(lr=0.1)

    def test_nan_in_a_stacked_path_factor_names_the_layer_and_the_factor(self):
        """A factor of dimension <= 32 is decomposed by the stacked ``eigh``, which would return NaNs silently."""
        def poison(pre):
            pre.layers["layers.4"].factor_g[-1] = np.nan  # the 3 x 3 G factor of the output layer

        pre = self.warmed_up(poison)
        before = self.snapshot(pre)
        message = r"G factor of layer 'layers.4' failed: factor of dimension 3 contains infs or NaNs"
        with pytest.raises(ValueError, match=message):
            pre.refresh.take()
        self.assert_untouched(pre, before)

    def test_lapack_info_names_the_factor_it_was_solving(self, monkeypatch):
        real = kmath._SYEVD[np.dtype(np.float32)]
        solved = []

        def fails_on_dim_49(jobz, uplo, n, *rest):
            solved.append(n.value)
            if n.value == 49:
                rest[-1].value = 3  # info: three off-diagonal elements did not converge
            else:
                real(jobz, uplo, n, *rest)

        pre = self.warmed_up(lambda pre: monkeypatch.setitem(kmath._SYEVD, np.dtype(np.float32), fails_on_dim_49))
        before = self.snapshot(pre)
        with pytest.raises(np.linalg.LinAlgError, match=r"A factor of layer 'layers.2' failed: .*dimension 49: info=3"):
            pre.refresh.take()
        assert 49 in solved and len(solved) > 1  # other factors had been solved before it and are discarded
        self.assert_untouched(pre, before)

    @pytest.mark.parametrize("solver, routines", [("eigen", "_SYEVD"), ("inverse", "_POTRF")])
    def test_a_step_retried_after_a_failed_solve_folds_its_window_once(self, monkeypatch, solver, routines):
        real = getattr(kmath, routines)[np.dtype(np.float32)]
        x, y = make_problem()

        def run(fail):
            failures = [fail] if fail else []

            def fails_once(*args):
                if failures:
                    failures.pop()
                    args[-1].value = 3  # info: no convergence (syevd), a leading minor not positive (potrf)
                else:
                    real(*args)

            model = MLP(10, [40], 3, rng=np.random.default_rng(0))  # A 11 / 41 and G 40 / 3
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, solve_strategy=solver)
            optimizer = optim.SGD(model.parameters(), lr=0.05)
            training_loop(model, pre, optimizer, x, y, steps=2)
            optimizer.zero_grad()
            with monkeypatch.context() as patch:
                patch.setitem(getattr(kmath, routines), np.dtype(np.float32), fails_once)
                nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64]).backward()  # starts step 2's solves
                if fail:
                    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
                        pre.step(lr=0.1)
                pre.step(lr=0.1)
            pre.remove()
            factors = {name: (layer.factor_a, layer.factor_g) for name, layer in pre.layers.items()}
            return factors, layer_events(pre.tracer, "factor_updates", pre.layers)

        retried, updates = run(fail=True)
        uninterrupted, _ = run(fail=False)
        assert updates == {name: 3 for name in retried}  # steps 0, 1 and 2, each once
        for name, factors in retried.items():
            for mine, other in zip(factors, uninterrupted[name]):
                np.testing.assert_array_equal(mine, other, err_msg=name)


class TestBadFactorWindowsAreRejected:
    """One non-finite window must not poison a running average for good (``decay * inf`` never decays):
    the averaged pair is checked before it is folded, rejected pairs are counted, and training goes on."""

    @staticmethod
    def warmed_up(**kwargs):
        model = MLP(10, [16, 12], 3, rng=np.random.default_rng(1))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, **kwargs)
        x, y = make_problem(3)
        opt = optim.SGD(model.parameters(), lr=0.05)
        training_loop(model, pre, opt, x, y, steps=2, batch=32)
        return model, pre, opt, x, y

    @staticmethod
    def factors(pre):
        return {name: (layer.factor_a.copy(), layer.factor_g.copy()) for name, layer in pre.layers.items()}

    def assert_factors_equal(self, pre, before):
        for name, layer in pre.layers.items():
            np.testing.assert_array_equal(layer.factor_a, before[name][0], err_msg=name)
            np.testing.assert_array_equal(layer.factor_g, before[name][1], err_msg=name)

    def test_a_1e30_feature_is_folded_nowhere_and_the_next_step_succeeds(self):
        model, pre, opt, x, y = self.warmed_up(solve_strategy="eigen")
        before = self.factors(pre)
        bad = x[32:64].copy()
        bad[3, 2] = 1e30  # overflows float32 in A of every layer downstream of it
        with np.errstate(all="ignore"):
            opt.zero_grad()
            nn.CrossEntropyLoss()(model(Tensor(bad)), y[32:64]).backward()
            pre.step(lr=0.1)  # no raise: the step runs on the factors it had
        self.assert_factors_equal(pre, before)
        for name, layer in pre.layers.items():
            # The step's refresh decomposed the factors as the step found them: the rejected window is in none.
            found = pre.kernels.batched_eigen_task([before[name][0]])()[0]
            np.testing.assert_array_equal(pre.solvers[name].eigen_a.eigenvalues, found.eigenvalues)
        rejected = layer_events(pre.tracer, "factor_windows_rejected", pre.layers)
        assert rejected == {name: 1 for name in pre.layers}
        assert pre.steps == 3
        # The bad batch is gone with its window: a clean step folds and decomposes as ever.
        opt.zero_grad()
        nn.CrossEntropyLoss()(model(Tensor(x[64:96])), y[64:96]).backward()
        pre.step(lr=0.1)
        for name, layer in pre.layers.items():
            assert np.isfinite(layer.factor_a).all() and np.isfinite(layer.factor_g).all()
            assert not np.array_equal(layer.factor_a, before[name][0])
        assert layer_events(pre.tracer, "factor_windows_rejected", pre.layers) == rejected

    def test_an_overflowed_amp_step_leaves_the_factors_alone(self):
        """``Trainer`` calls ``preconditioner.step()`` whether or not the scaler found an overflow."""
        from repro.training import Trainer

        scaler = optim.GradScaler(init_scale=2.0 ** 8)
        model, pre, opt, x, y = self.warmed_up(grad_scaler=scaler)
        loss_fn = nn.CrossEntropyLoss()
        trainer = Trainer(
            model, opt, lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]), preconditioner=pre, grad_scaler=scaler
        )
        trainer.train_step((x[:32], y[:32]))
        before = self.factors(pre)
        params = [p.data.copy() for p in model.parameters()]
        scaler.load_state_dict({**scaler.state_dict(), "scale": 2.0 ** 130})  # float32(scale) is inf
        with np.errstate(all="ignore"):
            trainer.train_step((x[32:64], y[32:64]))
        self.assert_factors_equal(pre, before)
        assert event_total(pre, "factor_windows_rejected") == len(pre.layers)
        for param, kept in zip(model.parameters(), params):
            np.testing.assert_array_equal(param.data, kept)  # the scaler skipped the optimizer step
        scaler.load_state_dict({**scaler.state_dict(), "scale": 2.0 ** 8})
        trainer.train_step((x[64:96], y[64:96]))
        assert all(np.isfinite(p.data).all() for p in model.parameters())
        assert all(np.isfinite(l.factor_g).all() for l in pre.layers.values())

    def test_a_rejected_window_is_counted_in_the_registry_not_the_checkpoint(self):
        model, pre, opt, x, y = self.warmed_up()
        opt.zero_grad()
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.layers["layers.2"].accumulators()[1][0] = np.inf
        pre.step(lr=0.1)
        rejected = layer_events(pre.tracer, "factor_windows_rejected", pre.layers)
        assert rejected == {name: int(name == "layers.2") for name in pre.layers}
        state = pre.state_dict()
        assert "scheduler" not in state  # the plan alone says when; nothing of it is stored
        clone = MLP(10, [16, 12], 3, rng=np.random.default_rng(1))
        restored = KFAC(clone, factor_update_freq=1, inv_update_freq=1)
        restored.load_state_dict(state)
        assert restored.plan == pre.plan and restored.actions() == pre.actions()
        assert event_total(restored, "factor_windows_rejected") == 0  # its rank's registry saw none

    def test_a_non_finite_first_window_raises_naming_the_layer(self):
        model = MLP(10, [16, 12], 3, rng=np.random.default_rng(1))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        x, y = make_problem(3)
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.layers["layers.2"].accumulators()[0][1] = np.nan
        with pytest.raises(ValueError, match=r"first factor window of layer\(s\) \['layers.2'\] is not finite"):
            pre.step(lr=0.1)
        assert pre.steps == 0 and pre.layers["layers.2"].factor_a is None
        # Nothing of the failed attempt is kept: the same step with clean statistics goes through.
        model.zero_grad()
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.step(lr=0.1)
        assert pre.steps == 1 and np.isfinite(pre.layers["layers.2"].factor_a).all()


class TestEigenWorker:
    """The rank's eigen worker solves what a step's actions read; the step solves what the worker has not
    started, installs it, raises its errors and leaves nothing running."""

    def test_twenty_preconditioners_built_and_removed_leave_no_thread_behind(self, monkeypatch):
        monkeypatch.setattr("repro.kfac.refresh.MIN_DEFERRED_BLOCK", 0)  # these narrow factors' products go to the worker
        x, y = make_problem()
        start, running = threading.active_count(), set(threading.enumerate())
        for seed in range(20):
            model = MLP(10, [40], 3, rng=np.random.default_rng(seed))
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
            assert not set(threading.enumerate()) - running  # started by the first solve, not by construction
            training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=3)
            (worker,) = set(threading.enumerate()) - running  # one worker per preconditioner
            for layer in pre.layers.values():
                layer.queue = pre.refresh  # as on a host with a core spare for the worker
            nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64]).backward()  # products handed over, none taken
            products = [task for layer in pre.layers.values() for _, task in layer._products]
            assert len(products) == 2 * len(pre.layers)
            pre.remove()
            assert not worker.is_alive()
            assert not any(layer._products for layer in pre.layers.values())
            assert all(task.future.done() and task.solve is None for task in products)  # inputs let go
        # Threads other tests left to the garbage collector may have ended meanwhile, none may have started.
        assert threading.active_count() <= start

    def test_the_worker_writes_no_layer_attribute_and_eigen_state_changes_only_in_step(self, monkeypatch):
        writers = set()

        def recording_setattr(layer, name, value):
            writers.add(threading.current_thread().name)
            object.__setattr__(layer, name, value)

        model = MLP(10, [40, 36], 3, rng=np.random.default_rng(0))  # dims 41 / 40 (syevd) and 37 / 3 (eigh)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")
        x, y = make_problem()
        monkeypatch.setattr(KFACLayer, "__setattr__", recording_setattr)
        monkeypatch.setattr(EigenSolveStrategy, "__setattr__", recording_setattr)  # where the eigen state lives
        training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=3)
        assert writers == {threading.current_thread().name}

        solvers = pre.solvers
        eigen = {name: (solver.eigen_a, solver.eigen_g, solver.inverse_outer) for name, solver in solvers.items()}
        copies = {name: [np.copy(part.eigenvalues) for part in state[:2]] for name, state in eigen.items()}
        nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64]).backward()
        assert pre.actions().refresh == tuple(pre.layers)  # the forward pass handed step 3's solves over
        wait([task.future for task in pre.refresh.tasks])
        for name, solver in solvers.items():
            assert (solver.eigen_a, solver.eigen_g, solver.inverse_outer) == eigen[name]
            for part, kept in zip((solver.eigen_a, solver.eigen_g), copies[name]):
                np.testing.assert_array_equal(part.eigenvalues, kept)
        pre.step(lr=0.1)
        assert all(solver.eigen_a is not eigen[name][0] for name, solver in solvers.items())
        assert pre.refresh.tasks == []  # nothing is in flight between steps

    @staticmethod
    def nan_step_on_a_w2_world(block, solver="inverse"):
        """Every rank puts a NaN in the factors it decomposes, steps inside ``block(pre)`` and raises the named
        error in time."""
        x, y = make_problem()

        def program(comm):
            model = MLP(10, [40, 36], 3, rng=np.random.default_rng(0))
            pre = KFAC(
                model, factor_update_freq=1, inv_update_freq=1, grad_worker_frac=0.5, comm=comm, solve_strategy=solver
            )
            mine = x[comm.rank :: 2], y[comm.rank :: 2]
            training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), *mine, steps=2, batch=32)
            decomposed = [(name, which) for name in pre.layers for which in ("a", "g") if pre.holds_factor(name, which)]
            for name, which in decomposed:
                getattr(pre.layers[name], f"factor_{which}")[0] = np.nan
            with block(pre):
                nn.CrossEntropyLoss()(model(Tensor(mine[0][:32])), mine[1][:32]).backward()
                with pytest.raises(ValueError, match=r"factor of layer '[^']+' failed: .* contains infs or NaNs") as raised:
                    pre.step(lr=0.1)
            pre.remove()
            return decomposed, str(raised.value)

        start = time.perf_counter()
        ranks = run_spmd(2, program)
        assert time.perf_counter() - start < 30  # a rank left waiting on the eigen round would time out at 60 s
        assert all(decomposed for decomposed, _ in ranks)
        for decomposed, message in ranks:
            assert any(f"{which.upper()} factor of layer {name!r}" in message for name, which in decomposed)

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_a_nan_in_the_running_factors_raises_the_named_error_on_every_rank_of_a_w2_world(self, solver):
        self.nan_step_on_a_w2_world(lambda pre: contextlib.nullcontext(), solver)

    def test_a_nan_found_by_a_solve_the_step_took_from_the_worker_raises_the_same_named_error(self, monkeypatch):
        read, nan_solvers = KernelBackend.eigen_task, []

        def read_in_the_solve(self, factors, repr_, **kwargs):
            copies = [np.array(factor) for factor in factors]

            def solve():
                if not all(np.isfinite(copy).all() for copy in copies):
                    nan_solvers.append(threading.current_thread().name)
                return read(self, copies, repr_, **kwargs)()

            return solve

        # The finiteness check moves from the read half into the solve, which the step takes from a blocked worker.
        monkeypatch.setattr(KernelBackend, "eigen_task", read_in_the_solve)
        self.nan_step_on_a_w2_world(blocked_eigen_worker, "eigen")
        assert nan_solvers and not any(name.startswith("kfac-eigen") for name in nan_solvers)

    def test_the_step_solves_what_the_worker_has_not_started_and_the_trajectory_is_the_same(self, monkeypatch):
        x, y = make_problem()

        def run(block):
            model = MLP(10, [40, 36], 3, rng=np.random.default_rng(0))  # dims 41 / 40 / 37 / 36 one task each
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
            optimizer = optim.SGD(model.parameters(), lr=0.05)
            trajectory, gauges = [], []
            for step in range(5):
                batch = slice(48 * step, 48 * (step + 1))
                optimizer.zero_grad()
                with block(pre):
                    nn.CrossEntropyLoss()(model(Tensor(x[batch])), y[batch]).backward()
                    pre.step(lr=optimizer.param_groups[0]["lr"])
                optimizer.step()
                gauges.append(tuple(pre.tracer.gauges()[f"kfac/eigen_{part}_ms"] for part in ("solve", "caller")))
                trajectory.append([param.data.copy() for param in model.parameters()])
            pre.remove()
            return trajectory, gauges

        caller_solved, split = run(blocked_eigen_worker)
        assert all(caller == solve > 0.0 for solve, caller in split)  # the worker started nothing: the step solved all
        with monkeypatch.context() as patch:
            patch.setattr(Future, "cancel", lambda future: False)  # as if the worker had started every task
            worker_solved, split = run(lambda pre: contextlib.nullcontext())
        assert all(caller == 0.0 < solve for solve, caller in split)
        for ours, theirs in zip(caller_solved, worker_solved):
            for mine, other in zip(ours, theirs):
                np.testing.assert_array_equal(mine, other)

    def test_every_factor_above_the_stack_dimension_is_a_task_of_its_own(self):
        model = MLP(6, [40, 40, 16, 16], 3, rng=np.random.default_rng(5))  # A 7, 41, 41, 17, 17; G 40, 40, 16, 16, 3
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        pre.tracer.enabled = True
        x, y = make_problem(3, in_dim=6)
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.step(lr=0.1)
        (dispatch,) = [record for record in pre.tracer.instants if record.name == "kfac/kernel_dispatch"]
        # The 41s and the 40s go one by one, so the step can take any of them; the 17s and the 16s stay stacked.
        assert sorted(dispatch.attrs["batch_sizes"]) == [1] * 6 + [2, 2]
        assert dispatch.attrs["factors"] == 10

    def test_dropping_a_step_cancels_the_solves_the_worker_has_not_started(self, monkeypatch):
        model = MLP(10, [40, 36], 3, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        x, y = make_problem()
        training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=2)  # step 1 refreshes nothing
        release = threading.Event()
        blocker = pre.refresh.defer(("blocker", "a"), lambda: release.wait(10))  # products run ahead of solves
        worker = pre.refresh.worker
        join = worker.join
        # remove() joins the worker last; only then may the blocker return.
        monkeypatch.setattr(worker, "join", lambda *args: (release.set(), join(*args)))
        nn.CrossEntropyLoss()(model(Tensor(x[:64])), y[:64]).backward()
        futures = [task.future for task in pre.refresh.tasks]
        assert len(futures) == 6  # four factors above dimension 32, the 11 and the 3 stacked alone
        start = time.perf_counter()
        pre.remove()
        assert time.perf_counter() - start < 5  # no solve queued behind the blocker was waited for
        assert blocker.future.done() and all(future.cancelled() for future in futures)
        assert not worker.is_alive()

    def test_a_late_worker_starts_nothing_the_steps_took_themselves(self, monkeypatch):
        """Gated through two steps that solve and form everything on the caller, the worker, once released, starts
        the next task and nothing of those steps."""
        model = MLP(10, [40, 36], 3, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        x, y = make_problem()
        started, start = [], Future.set_running_or_notify_cancel

        def spy(future):
            if threading.current_thread().name.startswith(pre.refresh.name):
                started.append(future)
            return start(future)

        monkeypatch.setattr(Future, "set_running_or_notify_cancel", spy)
        gate = threading.Event()
        gated = pre.refresh.defer(("gate", "a"), lambda: gate.wait(10))
        training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=2)
        after = pre.refresh.defer(("after", "a"), lambda: None)
        gate.set()
        after.future.result(timeout=10)
        assert started == [gated.future, after.future]
        pre.remove()

    def test_a_stacked_eigh_that_does_not_converge_names_the_one_member_that_fails(self, monkeypatch):
        model = MLP(6, [16, 16], 3, rng=np.random.default_rng(5))  # A 7, 17, 17 and G 16, 16, 3: two stacks of two
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")
        x, y = make_problem(3, in_dim=6)
        training_loop(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=2, batch=32)
        target, eigh = pre.layers["layers.4"].factor_a[0], np.linalg.eigh  # A[0, 0] of the 17-stack's second member

        def failing_eigh(matrix):
            if (matrix[..., 0, 0] == target).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        with pytest.raises(np.linalg.LinAlgError, match="did not converge") as raised:
            pre.step(lr=0.1)
        assert str(raised.value).startswith("eigendecomposition of the A factor of layer 'layers.4' failed")
        assert raised.value.__cause__.batch_index == 1
        pre.remove()
