"""Tests for the plan's cadence and the `repro.kfac.scheduling` package.

Covers the plan's actions (the base cadence, including cadences that need
not nest), the solve strategies and Levenberg-Marquardt adaptive damping,
their KFACConfig knobs, the planned-step-equals-fixed-cadence oracle (a
hand-written Listing-1 K-FAC step as the reference) and mid-epoch checkpoint
resume with adaptive damping on under all three distribution strategies.
"""

import threading

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import DistributedDataParallel, ThreadedWorld, run_spmd
from repro.kfac import (
    KFAC,
    AdaptiveDampingController,
    EigenSolveStrategy,
    FactorRepr,
    InverseSolveStrategy,
    KFACConfig,
    available_solve_strategies,
    make_kernel_backend,
    make_kfac_layer,
    tikhonov_pi,
)
from repro.kfac.assignment import folds_on
from repro.kfac.kmath import kl_clip_scale_from_total, split_damping
from repro.kfac.scheduling.solvers import solve_strategy_class
from repro.kfac.strategy import LayerShapeInfo
from repro.models import MLP
from repro.tensor import PrecisionPolicy, Tensor
from repro.training import Trainer

from counters import comm_counts, event_total, layer_events
from kernel_oracle import decompose_standalone, replicated_fold_reference

RNG = np.random.default_rng(303)


def make_problem(seed=0, samples=256, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


def make_plan(names, factor_update_freq, inv_update_freq):
    """The one-rank plan of equal-sized layers ``names`` under the two cadences."""
    layers = [LayerShapeInfo.dense(name, 4, 4) for name in names]
    config = KFACConfig(factor_update_freq=factor_update_freq, inv_update_freq=inv_update_freq)
    return config.distribution_plan(layers, 1)


def spd_factor(dim, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)).astype(np.float32)
    return (m @ m.T / dim * scale + np.eye(dim, dtype=np.float32)).astype(np.float32)


# ---------------------------------------------------------------------------
# Config knobs
# ---------------------------------------------------------------------------


class TestConfigKnobs:
    def test_divisibility_relaxed_under_adaptive(self):
        """Cadences need not nest: the planner forces a factor update on every eigen step."""
        config = KFACConfig(factor_update_freq=3, inv_update_freq=10)
        assert config.inv_update_freq == 10
        plan = make_plan(["l"], config.factor_update_freq, config.inv_update_freq)
        assert [step for step in range(1, 13) if plan.actions(step).fold] == [3, 6, 9, 10]
        assert plan.actions(10).fold == plan.actions(10).refresh == ("l",)

    @pytest.mark.parametrize("kwargs", [dict(adaptive_damping=True), dict(solve_strategy="eigen")])
    def test_adaptive_knobs_require_adaptive_schedule(self, kwargs):
        """Each knob reaches the scheduling package on its own, with no enabling flag."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, **kwargs)
        run_single_process(pre, model, steps=2, with_loss=True)
        key, value = list(kwargs.items())[-1]
        observed = {
            "adaptive_damping": pre.damping_controller is not None,
            "solve_strategy": next(iter(pre.solvers.values())).name,
        }
        assert observed[key] == value

    @pytest.mark.parametrize("kwargs", [dict(solve_strategy="cholesky"), dict(solve_strategy="cg")])
    def test_invalid_adaptive_values_raise(self, kwargs):
        with pytest.raises(ValueError, match="solve_strategy must be one of"):
            KFACConfig(**kwargs)

    def test_round_trip_preserves_adaptive_fields(self):
        config = KFACConfig(adaptive_damping=True, solve_strategy="eigen")
        assert KFACConfig.from_dict(config.to_dict()) == config

    def test_registry_names(self):
        assert available_solve_strategies() == ["eigen", "inverse"]


# ---------------------------------------------------------------------------
# The plan's actions
# ---------------------------------------------------------------------------


class TestActions:
    def test_the_plans_actions_are_the_fixed_cadence(self):
        """The plan's actions are the schedule: the fixed cadence, nothing else to consult."""
        plan = make_plan(["a", "b"], factor_update_freq=3, inv_update_freq=6)
        for step in range(20):
            actions = plan.actions(step)
            assert actions.fold == (("a", "b") if step % 3 == 0 else ())
            assert actions.refresh == (("a", "b") if step % 6 == 0 else ())

    @pytest.mark.parametrize("cadence", [(3, 7), (2, 5), (4, 6), (5, 10)], ids=lambda c: f"{c[0]}/{c[1]}")
    def test_fixed_cadence_folds_on_cadences_that_do_not_nest(self, cadence):
        """A refresh at offset 0 restarts the folds, so the base cadence folds on ``step % K % F == 0``."""
        factor_update_freq, inv_update_freq = cadence
        plan = make_plan(["a"], factor_update_freq, inv_update_freq)
        folded = [step for step in range(42) if plan.actions(step).fold]
        assert folded == [step for step in range(42) if step % inv_update_freq % factor_update_freq == 0]
        assert folded == [step for step in range(42) if folds_on(step, factor_update_freq, inv_update_freq)]

    @pytest.mark.parametrize("cadence", [(3, 7), (2, 5), (4, 6), (5, 10)], ids=lambda c: f"{c[0]}/{c[1]}")
    def test_fixed_cadence_counts_what_its_actions_perform_on_cadences_that_do_not_nest(self, cadence):
        model = MLP(6, [], 3, rng=np.random.default_rng(5))  # one layer
        pre = KFAC(model, factor_update_freq=cadence[0], inv_update_freq=cadence[1])
        run_single_process(pre, model, steps=42)
        performed = [pre.plan.actions(step) for step in range(42)]
        assert event_total(pre, "factor_updates") == sum(len(actions.fold) for actions in performed)
        assert event_total(pre, "eigen_updates") == sum(len(actions.refresh) for actions in performed)

    @pytest.mark.parametrize("cadence", [(3, 7), (2, 5), (4, 6), (5, 10), (3, 9), (5, 5)], ids=lambda c: f"{c[0]}/{c[1]}")
    def test_after_step_0_each_layer_refreshes_every_interval_from_the_latest_fold(self, cadence):
        """Nested, staggered or not: every layer refreshes on step 0, then exactly ``inv_update_freq`` steps apart,
        and each refresh reads a fold of its own step or of the step before (a staggered offset)."""
        factor_update_freq, inv_update_freq = cadence
        plan = make_plan(["a", "b", "c"], factor_update_freq, inv_update_freq)
        for name in ("a", "b", "c"):
            refreshed = [step for step in range(60) if name in plan.actions(step).refresh]
            folded = {step for step in range(60) if name in plan.actions(step).fold}
            assert refreshed[0] == 0 and len(refreshed) > 2, refreshed
            assert np.diff(refreshed[1:]).tolist() == [inv_update_freq] * (len(refreshed) - 2), refreshed
            assert all(step in folded or step - 1 in folded for step in refreshed), (refreshed, sorted(folded))

    def test_second_order_due_forces_factor_update(self):
        # inv freq not a multiple of factor freq: the eigen step at 10 is not
        # a base factor step, but factors must refresh with it.
        plan = make_plan(["a"], factor_update_freq=3, inv_update_freq=10)
        assert (plan.actions(10).fold, plan.actions(10).refresh) == (("a",), ("a",))

# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


class TestSolvers:
    def test_each_name_is_a_strategy_and_names_its_eigen_round(self):
        assert solve_strategy_class("eigen") is EigenSolveStrategy
        assert solve_strategy_class("inverse") is InverseSolveStrategy
        for name in ("eigen", "inverse"):
            plan = KFACConfig(solve_strategy=name).distribution_plan([LayerShapeInfo.dense("l", 4, 3)], 2)
            assert [spec.key for spec in plan.eigen_round["l"]] == [f"l/{name}_a", f"l/{name}_g"]
        with pytest.raises(ValueError, match="unknown solve strategy"):
            solve_strategy_class("cholesky")

    @staticmethod
    def _linear_handler(in_features=2, out_features=3):
        """A standalone ``Linear`` handler: bias-folded gradient ``(out_features, in_features + 1)``."""
        module = nn.Linear(in_features, out_features, rng=np.random.default_rng(0))
        return make_kfac_layer("lin", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)

    @pytest.mark.parametrize("key", ["eigen_a", "eigen_g", "inverse_outer"])
    def test_eigen_state_round_trips_bitwise_and_another_shape_is_refused_naming_the_layer(self, key):
        """The eigen strategy checks its own checkpoint against the layer's reprs: a resumed strategy solves to the
        bit; eigenvalues, eigenvectors or an outer product of another shape raise and leave the strategy as it was."""
        layer = self._linear_handler(3, 2)  # A 4 x 4, G 2 x 2, outer product (2, 4)
        layer.factor_a = layer.a_repr.from_dense(spd_factor(4, 1))
        layer.factor_g = layer.g_repr.from_dense(spd_factor(2, 2))
        grad = np.random.default_rng(3).standard_normal((2, 4)).astype(np.float32)
        strategy = decompose_standalone(layer, 0.01)
        state = strategy.state_dict()
        resumed = EigenSolveStrategy()
        resumed.state_loader(state, layer)()
        np.testing.assert_array_equal(resumed.solve(layer, grad, 0.01), strategy.solve(layer, grad, 0.01))
        if key == "inverse_outer":
            state[key] = state[key].T
        else:
            state[key] = dict(state[key], eigenvalues=state[key]["eigenvalues"][1:])
        fresh = EigenSolveStrategy()
        with pytest.raises(ValueError, match="layer 'lin'"):
            fresh.state_loader(state, layer)()
        assert fresh.held_bytes() == 0
        layer.remove()

    def test_tikhonov_pi(self):
        a = spd_factor(4, 1, scale=4.0)
        g = spd_factor(4, 2, scale=0.25)
        dense4 = FactorRepr.dense(4)
        a, g = dense4.from_dense(a), dense4.from_dense(g)
        pi = tikhonov_pi(a, g, dense4, dense4)
        assert pi > 1.0  # A carries more trace mass per dim than G
        assert tikhonov_pi(np.zeros(6), g, FactorRepr.dense(3), dense4) == 1.0  # degenerate -> neutral
        # The repr decides what a 1-D array is: the same six numbers as a diagonal have another trace.
        six = np.arange(1.0, 7.0, dtype=np.float32)
        as_triangle = tikhonov_pi(six, g, FactorRepr.dense(3), dense4)  # diagonal entries 1, 4, 6
        as_diagonal = tikhonov_pi(six, g, FactorRepr.diagonal(6), dense4)
        assert as_triangle == pytest.approx(as_diagonal * np.sqrt((11 / 3) / (21 / 6)))


# ---------------------------------------------------------------------------
# Adaptive damping controller
# ---------------------------------------------------------------------------


class TestAdaptiveDamping:
    def test_good_prediction_shrinks_damping(self):
        ctl = AdaptiveDampingController(0.01)
        ctl.record_prediction(loss=1.0, predicted_reduction=0.1)
        # Actual reduction matches the prediction: rho = 1 > 0.75 -> shrink.
        damping = ctl.observe_loss(0.9)
        assert damping == pytest.approx(0.009)
        assert ctl.last_rho == pytest.approx(1.0)

    def test_overpromise_grows_damping(self):
        ctl = AdaptiveDampingController(0.01)
        ctl.record_prediction(loss=1.0, predicted_reduction=0.1)
        # Loss barely moved: rho = 0.1 < 0.25 -> grow.
        damping = ctl.observe_loss(0.99)
        assert damping == pytest.approx(0.01 / 0.9)
        assert ctl.last_rho == pytest.approx(0.1)

    def test_neutral_band_keeps_damping(self):
        ctl = AdaptiveDampingController(0.01)
        ctl.record_prediction(loss=1.0, predicted_reduction=0.1)
        assert ctl.observe_loss(0.95) == 0.01  # rho = 0.5, inside the band

    def test_clamped_to_bounds(self):
        ctl = AdaptiveDampingController(1e-8)
        for _ in range(50):
            ctl.record_prediction(loss=1.0, predicted_reduction=0.1)
            ctl.observe_loss(0.9)
        assert ctl.damping >= ctl.min_damping

    def test_state_round_trip_preserves_pending(self):
        ctl = AdaptiveDampingController(0.01)
        ctl.record_prediction(loss=1.0, predicted_reduction=0.1)
        clone = AdaptiveDampingController(0.5)
        clone.load_state_dict(ctl.state_dict())
        assert clone.damping == 0.01
        # The pending prediction survives, so the next observe adjusts.
        assert clone.observe_loss(0.9) == pytest.approx(0.009)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveDampingController(0.0)
        with pytest.raises(ValueError):
            AdaptiveDampingController(0.01, shrink_factor=1.5)
        with pytest.raises(ValueError):
            AdaptiveDampingController(0.01, rho_low=0.8, rho_high=0.2)


# ---------------------------------------------------------------------------
# KFAC integration
# ---------------------------------------------------------------------------


def run_single_process(pre, model, steps=9, seed=7, with_loss=False, lr=0.1):
    """Drive `steps` preconditioned steps at the rate ``lr``; return per-step flattened grads."""
    loss_fn = nn.CrossEntropyLoss()
    x, y = make_problem(seed, samples=128, in_dim=6, classes=3)
    rng = np.random.default_rng(seed + 1)
    grads = []
    for _ in range(steps):
        idx = rng.integers(0, len(x), 32)
        model.zero_grad()
        loss = loss_fn(model(Tensor(x[idx])), y[idx])
        loss.backward()
        if with_loss and pre.damping_controller is not None:
            pre.step(lr, loss=float(loss.item()))
        else:
            pre.step(lr)
        grads.append(np.concatenate([np.asarray(p.grad).ravel().copy() for p in model.parameters()]))
    return grads


class TestKFACSchedulerIntegration:
    def paired_models(self):
        m1 = MLP(6, [16], 3, rng=np.random.default_rng(5))
        m2 = MLP(6, [16], 3, rng=np.random.default_rng(5))
        return m1, m2

    @pytest.mark.parametrize(
        "cadence", [(2, 4), (5, 10), (1, 1), (3, 3), (4, 8)],
        ids=["one-refresh-step", "staggered", "every-step", "refresh-on-every-fold", "staggered-4-8"],
    )  # fmt: skip
    def test_scheduler_path_bitwise_equals_fixed_path(self, cadence):
        """Acceptance criterion: the planned step is bitwise the
        base-cadence K-FAC step of Listing 1, written out by hand below from
        the layer primitives (fold on step % F, decompose each layer on its
        offset in the plan's ``refresh_offsets``, precondition and KL-clip
        every step).  The fold is the expression every rank used to run on its
        own copy of every factor, so this also holds the sharded factor stage
        to the replicated one, bit for bit, at world 1."""
        m1, m2 = self.paired_models()
        config = KFACConfig(factor_update_freq=cadence[0], inv_update_freq=cadence[1], solve_strategy="eigen")
        pre = KFAC(m1, config)
        offsets = pre.plan.refresh_offsets
        assert (sorted(offsets.values()) == [1, 6]) == (cadence == (5, 10)), offsets
        planned = run_single_process(pre, m1, steps=23)

        step = 0
        layers = [
            make_kfac_layer(
                name,
                module,
                config.precision_policy(),
                should_accumulate=lambda: step % config.factor_update_freq == 0,
                grad_scale=lambda: 1.0,
                kernels=make_kernel_backend(),
            )
            for name, module in m2.named_modules()
        ]
        layers = [layer for layer in layers if layer is not None]
        strategies = {layer.name: EigenSolveStrategy() for layer in layers}

        def gradients():
            return [(layer, layer.get_gradient()) for layer in layers]

        loss_fn = nn.CrossEntropyLoss()
        x, y = make_problem(7, samples=128, in_dim=6, classes=3)
        rng = np.random.default_rng(8)
        for step in range(len(planned)):
            idx = rng.integers(0, len(x), 32)
            m2.zero_grad()
            loss_fn(m2(Tensor(x[idx])), y[idx]).backward()
            for layer in layers:
                replicated_fold_reference(layer, strategies[layer.name], step, config, offsets[layer.name])
            pairs = [(grad, strategies[layer.name].solve(layer, grad, config.damping)) for layer, grad in gradients()]
            total = sum(float(np.sum(g.astype(np.float64) * p.astype(np.float64))) for g, p in pairs)
            nu = kl_clip_scale_from_total(total, 0.1, config.kl_clip)
            for layer, (_, precond) in zip(layers, pairs):
                layer.set_gradient(precond * nu)
            reference = np.concatenate([np.asarray(p.grad).ravel() for p in m2.parameters()])
            np.testing.assert_array_equal(planned[step], reference, err_msg=f"step {step}")

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_scheduler_path_bitwise_equals_fixed_path_distributed(self, grad_worker_frac, solver):
        """Every rank plans, and communicates on, exactly the
        base cadence on either solve path: factor traffic on step % 5, a layer's
        second-order traffic on its offset in the plan's ``refresh_offsets`` (none
        under MEM-OPT, whose eigen groups have one member), and nothing but
        (MEM/HYBRID-OPT's) gradient broadcasts in between."""
        x_global, y_global = make_problem(17, samples=256, in_dim=6, classes=3)
        config = KFACConfig(
            factor_update_freq=5, inv_update_freq=10, grad_worker_frac=grad_worker_frac, solve_strategy=solver
        )
        world = ThreadedWorld(4)
        traffic, steps = {}, 18  # step -> rank -> {op: bytes the rank counted}

        def program(comm):
            loss_fn = nn.CrossEntropyLoss()
            model = MLP(6, [16, 16, 16, 16], 3, rng=np.random.default_rng(42))
            ddp = DistributedDataParallel(model, comm)
            pre = KFAC(model, config, comm=comm)
            # Five layers at world 4: a group of four on step 1, the fifth on step 6.
            assert sorted(pre.plan.refresh_offsets.values()) == [1, 1, 1, 1, 6]
            batch_rng = np.random.default_rng(99)
            for step in range(steps):
                actions = pre.actions()
                assert actions == pre.plan.actions(step)
                assert (len(actions.refresh) > 0) == (step in (0, 6, 11, 16))  # step 1 has nothing new to read: passed over
                assert actions.fold == (tuple(pre.layers) if step % 5 == 0 else ())
                indices = batch_rng.integers(0, len(x_global), 32)
                local = indices[comm.rank :: comm.world_size]
                model.zero_grad()
                loss_fn(model(Tensor(x_global[local])), y_global[local]).backward()
                ddp.sync_gradients()
                before = comm_counts(comm.tracer)
                pre.step(lr=0.05)
                after = comm_counts(comm.tracer)
                moved = traffic.setdefault(step, {})[comm.rank] = {op: after[op][1] - before[op][1] for op in after}
                # This rank's slice of the plan: the messages whose group contains it.
                modeled = pre.plan.messages(step=step)
                assert moved["allreduce"] == sum(nbytes for members, nbytes in modeled["factor"] if comm.rank in members)
                assert moved["broadcast"] == sum(
                    nbytes for members, nbytes in modeled["eigen"] + modeled["gradient"] if comm.rank in members
                ), step
            # Every layer exactly once per interval: step 0, then 6 and 16, or (step 1 passed over) 11.
            assert set(layer_events(pre.tracer, "eigen_updates", pre.layers).values()) <= {2, 3}

        threads = [
            threading.Thread(target=program, args=(world.communicator(r),), daemon=True) for r in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(traffic) == steps
        # Summed over the ranks: every member counts a message it took part in.
        traffic = {step: {op: sum(moved[op] for moved in ranks.values()) for op in ("allreduce", "broadcast")}
                   for step, ranks in traffic.items()}
        plain = traffic[2]["broadcast"]  # gradient broadcasts only (none under COMM-OPT)
        for step, moved in traffic.items():
            assert (moved["allreduce"] > 0) == (step % 5 == 0), (step, moved)
            assert (moved["broadcast"] > plain) == (step in (0, 6, 11, 16) and grad_worker_frac > 0.25), (step, moved)
        assert (plain == 0) == (grad_worker_frac == 1.0)

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_adaptive_resume_mid_epoch_bitwise_all_strategies(self, grad_worker_frac, solver):
        """Checkpointing mid-epoch with adaptive damping on (π-damped inverses or
        eigenbases, as on every path) resumes bit-identically under MEM-OPT,
        HYBRID-OPT and COMM-OPT."""
        x_global, y_global = make_problem(23, samples=256, in_dim=6, classes=3)
        config = KFACConfig(
            factor_update_freq=1,
            inv_update_freq=2,
            grad_worker_frac=grad_worker_frac,
            adaptive_damping=True,
            solve_strategy=solver,
        )

        def program(comm):
            loss_fn = nn.CrossEntropyLoss()
            model = MLP(6, [16], 3, rng=np.random.default_rng(comm.rank + 1))
            ddp = DistributedDataParallel(model, comm)
            pre = KFAC.from_config(model, config, comm=comm)
            batch_rng = np.random.default_rng(77)

            def one_step(mdl, sync, precond, indices):
                local = indices[comm.rank :: comm.world_size]
                mdl.zero_grad()
                loss = loss_fn(mdl(Tensor(x_global[local])), y_global[local])
                loss.backward()
                sync.sync_gradients()
                precond.step(lr=0.05, loss=float(loss.item()))
                return np.concatenate([p.grad.ravel().copy() for p in mdl.parameters()])

            # 5 warmup steps: mid-cycle w.r.t. both cadences.
            for _ in range(5):
                one_step(model, ddp, pre, batch_rng.integers(0, len(x_global), 32))
            checkpoint = pre.state_dict()
            model_state = model.state_dict()
            future_batches = [batch_rng.integers(0, len(x_global), 32) for _ in range(4)]

            grads_original = [one_step(model, ddp, pre, batch) for batch in future_batches]

            restored = MLP(6, [16], 3, rng=np.random.default_rng(1234 + comm.rank))
            restored.load_state_dict(model_state)
            restored_ddp = DistributedDataParallel(restored, comm)
            pre2 = KFAC.from_config(restored, config, comm=comm)
            pre2.load_state_dict(checkpoint)
            grads_restored = [one_step(restored, restored_ddp, pre2, batch) for batch in future_batches]
            return grads_original, grads_restored

        for grads_original, grads_restored in run_spmd(4, program):
            for a, b in zip(grads_original, grads_restored):
                np.testing.assert_array_equal(a, b)

    def test_fixed_path_counts_are_neutral(self):
        """Refreshes are counted on each layer's own phase: a staggered plan skips nothing, after any number of steps."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = KFAC.from_config(model, KFACConfig(factor_update_freq=5, inv_update_freq=10))
        assert sorted(pre.plan.refresh_offsets.values()) == [1, 6]
        for steps, refreshes in ((1, 2), (6, 3), (5, 4), (10, 6)):  # in all: 1, 7, 12, 22 steps
            run_single_process(pre, model, steps=steps)
            assert event_total(pre, "eigen_updates") == refreshes  # steps 0 + 0, 6, 11, 16, 21
            assert event_total(pre, "factor_updates") == 2 * -(-pre.steps // 5)  # 2 layers x steps {0, 5, 10, ...}

    def test_the_inverse_path_approximates_the_eigen_path(self):
        # With the π-damped split, the eigen outer product equals
        # (G + γ_g I)^-1 ⊗ (A + γ_a I)^-1 exactly — the same damped system the
        # inverse strategy solves — so the paths agree to solver precision
        # (the eigen path's π comes from Σλ, the inverse's from the factors'
        # traces: equal to rounding).
        m1, m2 = self.paired_models()
        eigen_pre = KFAC.from_config(
            m1,
            KFACConfig(
                factor_update_freq=1,
                inv_update_freq=1,
                solve_strategy="eigen",
            ),
        )
        alt_pre = KFAC.from_config(
            m2,
            KFACConfig(
                factor_update_freq=1,
                inv_update_freq=1,
                solve_strategy="inverse",
            ),
        )
        g1 = run_single_process(eigen_pre, m1, steps=1)
        g2 = run_single_process(alt_pre, m2, steps=1)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-5)

    def test_inverse_solver_reads_the_factors_its_step_began_with(self):
        """The inverses are solved from the factors as the step began, like the decompositions: after step 0
        each refresh inverts the factors as the step found them, damped with their own π (always on this path)."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(factor_update_freq=1, inv_update_freq=1, solve_strategy="inverse")
        pre = KFAC(model, config)
        x, y = make_problem(7, samples=160, in_dim=6, classes=3)
        refreshed = 0
        for step in range(5):
            model.zero_grad()
            nn.CrossEntropyLoss()(model(Tensor(x[32 * step : 32 * step + 32])), y[32 * step : 32 * step + 32]).backward()
            refresh = pre.actions().refresh if step else ()
            found = {name: (pre.layers[name].factor_a.copy(), pre.layers[name].factor_g.copy()) for name in refresh}
            pre.step(lr=0.1)
            for name in refresh:
                layer, solver = pre.layers[name], pre.solvers[name]
                factor_a, factor_g = found[name]
                damping_a, damping_g = split_damping(pre.damping, tikhonov_pi(factor_a, factor_g, layer.a_repr, layer.g_repr))
                (inv_a,) = pre.kernels.inverse_task([factor_a], layer.a_repr, [damping_a])()
                (inv_g,) = pre.kernels.inverse_task([factor_g], layer.g_repr, [damping_g])()
                assert solver.inv_a.packed().tobytes() == inv_a.tobytes()
                assert solver.inv_g.packed().tobytes() == inv_g.tobytes()
                refreshed += 1
        assert refreshed == 3 * len(pre.layers)  # steps 2, 3 and 4: step 1 would re-read step 0's factors

    def test_inverse_solver_reports_memory(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            factor_update_freq=1, inv_update_freq=1, solve_strategy="inverse"
        )
        pre = KFAC.from_config(model, config)
        run_single_process(pre, model, steps=2)
        usage = pre.memory_usage()
        assert usage["solver"] > 0
        assert usage["total"] == usage["factors"] + usage["eigen"] + usage["solver"]

    def test_the_eigen_path_damps_with_pi_from_its_eigenvalues_and_preserves_descent(self):
        """The eigen holder's outer product is ``1 / ((v_G + √γ/π)(v_A + π√γ)ᵀ)`` with π from the eigenvalues it
        holds, not Eq. 16's ``1 / (v_G v_Aᵀ + γ)``, and the preconditioned gradient is still a descent direction."""
        model = self.paired_models()[0]
        pre = KFAC.from_config(model, KFACConfig(factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen"))
        x, y = make_problem(31, samples=64, in_dim=6, classes=3)
        model.zero_grad()
        nn.CrossEntropyLoss()(model(Tensor(x)), y).backward()
        raw = [np.asarray(p.grad, dtype=np.float64).copy() for p in model.parameters()]
        pre.step(lr=0.1)
        precond = [np.asarray(p.grad, dtype=np.float64) for p in model.parameters()]
        assert all(np.isfinite(g).all() for g in precond)
        assert sum(float(np.sum(r * p)) for r, p in zip(raw, precond)) > 0.0  # positive definite: descent
        for solver in pre.solvers.values():
            v_a, v_g = (eig.eigenvalues.astype(np.float64) for eig in (solver.eigen_a, solver.eigen_g))
            pi = np.sqrt((v_a.sum() / v_a.size) / (v_g.sum() / v_g.size))
            assert pi != 1.0
            damping_a, damping_g = split_damping(pre.damping, pi)
            expected = (1.0 / np.outer(v_g + damping_g, v_a + damping_a)).astype(solver.inverse_outer.dtype)
            np.testing.assert_array_equal(solver.inverse_outer, expected)
            assert not np.array_equal(solver.inverse_outer, (1.0 / (np.outer(v_g, v_a) + pre.damping)).astype(expected.dtype))

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_adaptive_damping_moves_damping_in_training(self, solver):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            factor_update_freq=1, inv_update_freq=1, adaptive_damping=True, solve_strategy=solver
        )
        pre = KFAC.from_config(model, config)
        assert pre.damping_controller is not None
        run_single_process(pre, model, steps=10, with_loss=True)
        counters = pre.tracer.counters()
        assert counters.get("kfac/damping_shrinks", 0) + counters.get("kfac/damping_grows", 0) > 0
        assert pre.damping != config.damping
        assert pre.tracer.gauges()["kfac/damping"] == pre.damping

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_damping_is_the_controllers_gamma_after_every_step_and_after_a_restore(self, solver):
        """``KFAC.damping`` reads the controller's γ: no copy is mirrored by a step or by a load."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(factor_update_freq=1, inv_update_freq=1, adaptive_damping=True, solve_strategy=solver)
        pre = KFAC.from_config(model, config)
        seen = []
        for steps in range(1, 7):
            run_single_process(pre, model, steps=1, seed=steps, with_loss=True)
            assert pre.damping == pre.damping_controller.damping == pre.tracer.gauges()["kfac/damping"]
            seen.append(pre.damping)
        assert len(set(seen)) > 1 and pre.config.damping == config.damping
        fresh = KFAC.from_config(MLP(6, [16], 3, rng=np.random.default_rng(6)), config)
        assert fresh.damping == config.damping
        fresh.load_state_dict(pre.state_dict())
        assert fresh.damping == fresh.damping_controller.damping == pre.damping

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_trainer_feeds_loss_to_adaptive_damping(self, solver):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            factor_update_freq=1, inv_update_freq=1, adaptive_damping=True, solve_strategy=solver
        )
        pre = KFAC.from_config(model, config)
        optimizer = optim.SGD(model.parameters(), lr=0.05)
        loss_fn = nn.CrossEntropyLoss()
        x, y = make_problem(37, samples=64, in_dim=6, classes=3)

        def forward_loss(mdl, batch):
            data, target = batch
            return loss_fn(mdl(Tensor(data)), target)

        trainer = Trainer(model, optimizer, forward_loss, preconditioner=pre)
        for _ in range(6):
            trainer.train_step((x[:32], y[:32]))
        counters = trainer.tracer.counters()
        assert counters.get("kfac/damping_shrinks", 0) + counters.get("kfac/damping_grows", 0) > 0

    def test_trainer_matches_listing_one(self):
        """A ``Trainer`` stays bitwise identical to a hand-written Listing-1 loop
        (backward, ``KFAC.step(lr)``, ``optimizer.step()``)."""
        config = KFACConfig(factor_update_freq=1, inv_update_freq=2)
        loss_fn = nn.CrossEntropyLoss()
        x, y = make_problem(41, samples=128, in_dim=6, classes=3)

        def forward_loss(mdl, batch):
            data, target = batch
            return loss_fn(mdl(Tensor(data)), target)

        results = []
        for by_hand in (False, True):
            model = MLP(6, [16], 3, rng=np.random.default_rng(9))
            pre = KFAC.from_config(model, config)
            optimizer = optim.SGD(model.parameters(), lr=0.05)
            trainer = Trainer(model, optimizer, forward_loss, preconditioner=pre)
            losses = []
            for _ in range(12):
                if not by_hand:
                    losses.append(trainer.train_step((x[:32], y[:32])))
                    continue
                optimizer.zero_grad()
                loss = forward_loss(model, (x[:32], y[:32]))
                loss.backward()
                pre.step(lr=optimizer.param_groups[0]["lr"])
                optimizer.step()
                losses.append(float(loss.item()))
            results.append(
                (losses, np.concatenate([np.asarray(p.data, dtype=np.float64).ravel().copy() for p in model.parameters()]))
            )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_scheduler_state_survives_via_from_config_round_trip(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(factor_update_freq=1, inv_update_freq=2, adaptive_damping=True, solve_strategy="eigen")
        pre = KFAC.from_config(model, config)
        run_single_process(pre, model, steps=5, with_loss=True)
        state = pre.state_dict()
        assert set(state) == {"format", "steps", "config", "layers", "solvers", "damping_controller"}
        # Config dict in the state round-trips every knob.
        assert KFACConfig.from_dict(state["config"]) == config
