"""Tests for the adaptive second-order scheduling subsystem.

Covers the plan's actions (the base cadence, including cadences that need
not nest), the `repro.kfac.scheduling` package (their drift revision,
Levenberg-Marquardt adaptive damping, inverse-free solve strategies), its
KFACConfig knobs, the planned-step-equals-fixed-cadence oracle (a hand-written Listing-1 K-FAC
step as the reference), mid-epoch
checkpoint resume with drift tracking on under all three distribution
strategies, and the measured-fraction hooks into the analytic cost model.
"""

import threading

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import DistributedDataParallel, ThreadedWorld, run_spmd
from repro.kfac import (
    KFAC,
    AdaptiveDampingController,
    CGSolveStrategy,
    DriftSchedule,
    EigenSolveStrategy,
    FactorRepr,
    InverseSolveStrategy,
    KFACConfig,
    apply_measured_fractions,
    available_solve_strategies,
    factor_drift,
    kronecker_cg,
    make_kernel_backend,
    make_kfac_layer,
    tikhonov_pi,
)
from repro.kfac.assignment import folds_on
from repro.kfac.analysis import IterationTimeModel, KFACWorkloadSpec, model_comm_schedule
from repro.kfac.kmath import damped_inverse, kl_clip_scale_from_total, split_damping
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
    layers = [LayerShapeInfo(name, 4, 4, 16) for name in names]
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drift_tol=0.1),
            dict(drift_tol=0.1, max_staleness=800),
            dict(adaptive_damping=True),
            dict(small_layer_dim=16),
            dict(solve_strategy="cg"),
        ],
    )
    def test_adaptive_knobs_require_adaptive_schedule(self, kwargs):
        """Each adaptive knob reaches the scheduling subsystem on its own, with no enabling flag."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, **kwargs)
        run_single_process(pre, model, steps=2, with_loss=True)
        key, value = list(kwargs.items())[-1]
        observed = {
            "drift_tol": 0.0 if pre.drift is None else pre.drift.drift_tol,
            "max_staleness": pre.config.max_staleness,
            "adaptive_damping": pre.damping_controller is not None,
            "small_layer_dim": 16 if {s.name for s in pre.solvers.values()} == {"cg", "inverse"} else 0,
            "solve_strategy": next(iter(pre.solvers.values())).name,
        }
        assert observed[key] == value

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drift_tol=-0.1),
            dict(max_staleness=-1),
            dict(max_staleness=50),  # positive but below inv_update_freq=100
            dict(solve_strategy="cholesky"),
            dict(small_layer_solver="cholesky"),
            dict(small_layer_dim=-1),
            dict(cg_tol=0.0),
            dict(cg_max_iter=0),
        ],
    )
    def test_invalid_adaptive_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            KFACConfig(**kwargs)

    def test_adaptive_preset(self):
        config = KFACConfig.adaptive()
        assert config.drift_tol == 0.05
        assert config.adaptive_damping
        assert config.solve_strategy == "eigen"
        assert config.small_layer_dim == 32
        assert config.small_layer_solver == "cg"
        assert config.max_staleness == 8 * config.inv_update_freq
        # overrides win, and max_staleness follows an overridden eigen cadence
        custom = KFACConfig.adaptive(inv_update_freq=20, factor_update_freq=3)
        assert custom.max_staleness == 160
        assert KFACConfig.adaptive(max_staleness=500).max_staleness == 500

    def test_round_trip_preserves_adaptive_fields(self):
        config = KFACConfig.adaptive(drift_tol=0.2, solve_strategy="inverse")
        assert KFACConfig.from_dict(config.to_dict()) == config

    def test_registry_names(self):
        assert {"eigen", "inverse", "cg"} <= set(available_solve_strategies())


# ---------------------------------------------------------------------------
# The plan's actions and their drift revision
# ---------------------------------------------------------------------------


class TestActionsAndDriftSchedule:
    def run_plan(self, drift, steps, factors, skips=None, start=0):
        """Drive ``drift`` like KFAC.step does; return per-step ``(fold, refresh)`` (and append the skips)."""
        plan = []
        for step in range(start, start + steps):
            base = drift.plan.actions(step)
            actions = drift.revise(base)
            for name in actions.fold:
                assert not drift.observe_factors(name, step, factors[name], factors[name])
            refresh = drift.refreshes(step)
            for name in refresh:
                drift.mark_second_order(name, step, factors[name], factors[name])
            if skips is not None:
                skips.append((
                    [name for name in base.fold if name not in actions.fold],
                    [name for name in base.refresh if name not in refresh],
                ))  # fmt: skip
            plan.append((actions.fold, refresh))
        return plan

    def test_zero_drift_tol_matches_fixed_cadence(self):
        """With drift off the plan's actions are the schedule: the fixed cadence, nothing else to consult."""
        plan = make_plan(["a", "b"], factor_update_freq=3, inv_update_freq=6)
        for step in range(20):
            actions = plan.actions(step)
            assert actions.fold == (("a", "b") if step % 3 == 0 else ())
            assert actions.refresh == (("a", "b") if step % 6 == 0 else ())
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        assert KFAC(model, factor_update_freq=3, inv_update_freq=6).drift is None  # and no revision exists

    @pytest.mark.parametrize("cadence", [(3, 7), (2, 5), (4, 6), (5, 10)], ids=lambda c: f"{c[0]}/{c[1]}")
    def test_fixed_cadence_skips_nothing_on_cadences_that_do_not_nest(self, cadence):
        """A refresh at offset 0 restarts the folds, so the base cadence folds on ``step % K % F == 0``,
        a tolerant drift revision of constant factors folds exactly there and skips nothing, and the
        base count is what the actions perform."""
        factor_update_freq, inv_update_freq = cadence
        plan = make_plan(["a"], factor_update_freq, inv_update_freq)
        folded = [step for step in range(42) if plan.actions(step).fold]
        assert folded == [step for step in range(42) if step % inv_update_freq % factor_update_freq == 0]
        assert folded == [step for step in range(42) if folds_on(step, factor_update_freq, inv_update_freq)]
        skips = []
        revised = self.run_plan(DriftSchedule(plan, drift_tol=0.05), 42, {"a": spd_factor(4, 1)}, skips)
        assert revised == [(plan.actions(step).fold, plan.actions(step).refresh) for step in range(42)]
        assert skips == [([], [])] * 42
        assert plan.base_updates(42) == (len(folded), sum(1 for _, refresh in revised if refresh))

    @pytest.mark.parametrize("cadence", [(3, 7), (2, 5), (4, 6), (5, 10)], ids=lambda c: f"{c[0]}/{c[1]}")
    def test_fixed_cadence_measures_unit_fractions_on_cadences_that_do_not_nest(self, cadence):
        model = MLP(6, [], 3, rng=np.random.default_rng(5))  # one layer
        pre = KFAC(model, factor_update_freq=cadence[0], inv_update_freq=cadence[1])
        run_single_process(pre, model, steps=42)
        assert event_total(pre, "factor_skips") == event_total(pre, "eigen_skips") == 0
        assert event_total(pre, "factor_updates") == pre.plan.base_updates(42)[0]
        spec = apply_measured_fractions(TestModeledFractions().small_spec(), pre)
        assert spec.factor_update_fraction == spec.eigen_update_fraction == 1.0

    def test_second_order_due_forces_factor_update(self):
        # inv freq not a multiple of factor freq: the eigen step at 10 is not
        # a base factor step, but factors must refresh with it -- in the
        # plan's actions and in a drift revision of them alike.
        plan = make_plan(["a"], factor_update_freq=3, inv_update_freq=10)
        assert (plan.actions(10).fold, plan.actions(10).refresh) == (("a",), ("a",))
        revised = self.run_plan(DriftSchedule(plan, drift_tol=0.05), 12, {"a": spd_factor(4, 1)})
        assert revised[10] == (("a",), ("a",))

    def test_drift_pulls_refresh_forward(self):
        drift = DriftSchedule(make_plan(["a"], factor_update_freq=1, inv_update_freq=6), drift_tol=0.05)
        base = spd_factor(4, 1)
        # Step 0: factor + eigen refresh, snapshot taken.
        assert drift.revise(drift.plan.actions(0)).fold == ("a",)
        drift.observe_factors("a", 0, base, base)
        assert drift.refreshes(0) == ("a",)
        drift.mark_second_order("a", 0, base, base)
        # Step 1: same factors -> tiny drift, no refresh due.
        drift.observe_factors("a", 1, base, base)
        assert drift.refreshes(1) == ()
        # Step 2: factors change massively -> refresh pulled to the next step, known when it begins.
        shifted = (base * 10.0).astype(np.float32)
        assert drift.observe_factors("a", 2, shifted, shifted)
        assert drift.state_dict()["layers"]["a"]["last_drift"] > 0.05
        assert drift.refreshes(2) == ()
        assert drift.revise(drift.plan.actions(3)).refresh == ("a",)

    def test_stale_layer_stretches_interval_to_cap(self):
        plan = make_plan(["a"], factor_update_freq=1, inv_update_freq=2)
        drift = DriftSchedule(plan, drift_tol=0.5, max_staleness=8)
        skips = []
        revised = self.run_plan(drift, 30, {"a": spd_factor(4, 1)}, skips)
        # Zero drift forever: the eigen interval doubles 2 -> 4 -> 8 and caps.
        assert drift.state_dict()["layers"]["a"]["eigen_interval"] == 8
        assert any(eigen_skipped == ["a"] for _, eigen_skipped in skips)
        fixed_eigen_updates = 15  # steps 0,2,...,28
        assert sum(1 for _, refresh in revised if refresh) < fixed_eigen_updates == plan.base_updates(30)[1]

    def test_state_dict_round_trip_continues_identically(self):
        plan = make_plan(["a", "b"], factor_update_freq=1, inv_update_freq=2)

        def build():
            return DriftSchedule(plan, drift_tol=0.3, max_staleness=8)

        factors = {"a": spd_factor(4, 1), "b": spd_factor(3, 2)}
        original = build()
        self.run_plan(original, 7, factors)
        resumed = build()
        resumed.load_state_dict(original.state_dict())
        skips_a, skips_b = [], []
        plan_a = self.run_plan(original, 9, factors, skips_a, start=7)
        plan_b = self.run_plan(resumed, 9, factors, skips_b, start=7)
        assert plan_a == plan_b
        assert skips_a == skips_b

    def test_layer_mismatch_raises(self):
        drift = DriftSchedule(make_plan(["a"], 1, 2), drift_tol=0.1)
        other = DriftSchedule(make_plan(["b"], 1, 2), drift_tol=0.1)
        with pytest.raises(ValueError, match="does not match"):
            drift.load_state_dict(other.state_dict())

    def test_only_a_positive_drift_tol_builds_a_schedule(self):
        """The config validates the knobs once; the preconditioner builds a revision only when drift is on."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        assert KFAC(model, factor_update_freq=1, inv_update_freq=2).drift is None
        assert isinstance(KFAC(model, factor_update_freq=1, inv_update_freq=2, drift_tol=0.1).drift, DriftSchedule)
        with pytest.raises(ValueError, match="max_staleness"):
            KFACConfig(factor_update_freq=1, inv_update_freq=10, drift_tol=0.1, max_staleness=5)

    def test_factor_drift_normalization(self):
        base = spd_factor(4, 3)
        assert factor_drift(base, base) == 0.0
        assert factor_drift(base * 2.0, base) == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("dim", [1, 2, 5, 33])
    def test_drift_of_packed_triangles_is_the_full_matrix_drift(self, dim):
        """A stored triangle holds every off-diagonal entry once; the drift ``drift_tol`` is compared
        with stays the Frobenius quantity over the whole matrix, not over the triangle."""
        repr_ = FactorRepr.dense(dim)
        old = spd_factor(dim, 3)
        new = (old + 0.3 * np.diag(np.arange(1.0, dim + 1.0))).astype(np.float32)  # moves the diagonal only
        square = factor_drift(new, old)
        packed = factor_drift(repr_.from_dense(new), repr_.from_dense(old), repr_)
        assert packed == pytest.approx(square, rel=1e-12)
        if dim > 1:  # over the triangle alone the same change reads larger: the off-diagonal mass is halved
            assert factor_drift(repr_.from_dense(new), repr_.from_dense(old)) > square * 1.001
        # The other representations hold exactly the nonzero entries.
        diagonal = FactorRepr.diagonal(dim)
        assert factor_drift(np.diag(new), np.diag(old), diagonal) == factor_drift(np.diag(new), np.diag(old))

    def test_packed_factors_make_the_refresh_decisions_square_ones_make(self):
        """``drift_tol`` sits between the full-matrix drift and what the bare triangle would read."""
        repr_ = FactorRepr.dense(6)
        base = spd_factor(6, 1)
        moved = (base + 0.2 * np.eye(6)).astype(np.float32)
        full, bare = factor_drift(moved, base), factor_drift(repr_.from_dense(moved), repr_.from_dense(base))
        assert full < bare
        tol = 0.5 * (full + bare)
        plans = []
        plan = make_plan(["a"], factor_update_freq=1, inv_update_freq=6)
        for pack, reprs in ((lambda f: f, ()), (repr_.from_dense, (repr_, repr_))):
            drift = DriftSchedule(plan, drift_tol=tol)
            drift.observe_factors("a", 0, pack(base), pack(base), *reprs)
            drift.mark_second_order("a", 0, pack(base), pack(base))
            triggered = drift.observe_factors("a", 1, pack(moved), pack(moved), *reprs)
            plans.append((drift.refreshes(1), triggered))
            restored = DriftSchedule(plan, drift_tol=tol)
            restored.load_state_dict(drift.state_dict())  # the snapshot round-trips in the layout it was taken in
            np.testing.assert_array_equal(restored.state_dict()["layers"]["a"]["snapshot_a"], pack(base))
        assert plans == [((), False), ((), False)]


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


class TestSolvers:
    def test_kronecker_cg_matches_direct_inverse(self):
        a = spd_factor(6, 1)
        g = spd_factor(4, 2)
        rhs = np.random.default_rng(3).standard_normal((4, 6)).astype(np.float32)
        solution, iters = kronecker_cg(a, g, rhs, 0.01, 0.01, tol=1e-12, max_iter=200)
        inv_a = np.linalg.inv(a.astype(np.float64) + 0.01 * np.eye(6))
        inv_g = np.linalg.inv(g.astype(np.float64) + 0.01 * np.eye(4))
        expected = inv_g @ rhs.astype(np.float64) @ inv_a
        np.testing.assert_allclose(solution, expected, rtol=1e-6, atol=1e-8)
        assert iters > 0

    def test_kronecker_cg_warm_start_converges_faster(self):
        a = spd_factor(8, 1)
        g = spd_factor(8, 2)
        rhs = np.random.default_rng(3).standard_normal((8, 8)).astype(np.float32)
        cold, cold_iters = kronecker_cg(a, g, rhs, 0.01, 0.01, tol=1e-10, max_iter=500)
        # Slightly perturbed right-hand side, seeded with the previous answer.
        rhs2 = rhs + 1e-4 * np.random.default_rng(4).standard_normal(rhs.shape).astype(np.float32)
        _, warm_iters = kronecker_cg(a, g, rhs2, 0.01, 0.01, x0=cold, tol=1e-10, max_iter=500)
        _, cold2_iters = kronecker_cg(a, g, rhs2, 0.01, 0.01, tol=1e-10, max_iter=500)
        assert warm_iters < cold2_iters

    def test_each_name_is_a_strategy_built_from_the_config_fields_it_reads(self):
        assert solve_strategy_class("eigen") is EigenSolveStrategy
        assert solve_strategy_class("inverse") is InverseSolveStrategy
        cg = solve_strategy_class("cg").from_config(KFACConfig(solve_strategy="cg", cg_tol=1e-6, cg_max_iter=7))
        assert isinstance(cg, CGSolveStrategy) and (cg.tol, cg.max_iter) == (1e-6, 7)
        assert not EigenSolveStrategy.from_config(KFACConfig(solve_strategy="eigen", compute_eigen_outer=False)).compute_outer
        with pytest.raises(ValueError, match="unknown solve strategy"):
            solve_strategy_class("cholesky")

    @staticmethod
    def _linear_handler(in_features=2, out_features=3):
        """A standalone ``Linear`` handler: bias-folded gradient ``(out_features, in_features + 1)``."""
        module = nn.Linear(in_features, out_features, rng=np.random.default_rng(0))
        return make_kfac_layer("lin", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)

    def test_cg_state_round_trip(self):
        layer = self._linear_handler()
        solver = CGSolveStrategy()
        solver.last_solution = np.ones((3, 3), dtype=np.float64)
        solver.total_iterations = 12
        clone = CGSolveStrategy()
        clone.load_state_dict(solver.state_dict(), layer)
        np.testing.assert_array_equal(clone.last_solution, solver.last_solution)
        assert clone.total_iterations == 12
        layer.remove()

    @pytest.mark.parametrize(
        "warm", [np.ones((3, 2)), np.ones(9), np.ones((3, 3), dtype=np.int64)], ids=["transposed", "flat", "ints"]
    )
    def test_a_cg_warm_start_of_another_shape_or_kind_is_refused_naming_the_layer(self, warm):
        """A warm start the solve cannot use would be dropped by it while ``memory_usage()`` counted its bytes:
        the load refuses anything but a float ``(g_dim, a_dim)`` array, and keeps what the strategy held."""
        layer = self._linear_handler(2, 3)  # gradient (3, 3)
        solver = CGSolveStrategy()
        with pytest.raises(ValueError, match=r"layer 'lin'.*CG warm start.*\(3, 3\)"):
            solver.load_state_dict({"last_solution": warm, "total_iterations": 4}, layer)
        assert solver.last_solution is None and solver.total_iterations == 0 and solver.held_bytes() == 0
        layer.remove()

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
        resumed.load_state_dict(state, layer)
        np.testing.assert_array_equal(resumed.solve(layer, grad, 0.01), strategy.solve(layer, grad, 0.01))
        if key == "inverse_outer":
            state[key] = state[key].T
        else:
            state[key] = dict(state[key], eigenvalues=state[key]["eigenvalues"][1:])
        fresh = EigenSolveStrategy()
        with pytest.raises(ValueError, match="layer 'lin'"):
            fresh.load_state_dict(state, layer)
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


def run_single_process(pre, model, steps=9, seed=7, with_loss=False):
    """Drive `steps` preconditioned steps; return per-step flattened grads."""
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
            pre.step(loss=float(loss.item()))
        else:
            pre.step()
        grads.append(np.concatenate([np.asarray(p.grad).ravel().copy() for p in model.parameters()]))
    return grads


class TestKFACSchedulerIntegration:
    def paired_models(self):
        m1 = MLP(6, [16], 3, rng=np.random.default_rng(5))
        m2 = MLP(6, [16], 3, rng=np.random.default_rng(5))
        return m1, m2

    @pytest.mark.parametrize("cadence", [(2, 4), (5, 10)], ids=["one-refresh-step", "staggered"])
    def test_scheduler_path_bitwise_equals_fixed_path(self, cadence):
        """Acceptance criterion: at drift_tol=0 the planned step is bitwise the
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
            nu = kl_clip_scale_from_total(total, config.lr, config.kl_clip)
            for layer, (_, precond) in zip(layers, pairs):
                layer.set_gradient(precond * nu)
            reference = np.concatenate([np.asarray(p.grad).ravel() for p in m2.parameters()])
            np.testing.assert_array_equal(planned[step], reference, err_msg=f"step {step}")

    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_scheduler_path_bitwise_equals_fixed_path_distributed(self, grad_worker_frac):
        """At drift_tol=0 every rank plans, and communicates on, exactly the
        base cadence: factor traffic on step % 5, a layer's eigen traffic on
        its offset in the plan's ``refresh_offsets`` (none under MEM-OPT,
        whose eigen groups have one member), and nothing but (MEM/HYBRID-OPT's)
        gradient broadcasts in between."""
        x_global, y_global = make_problem(17, samples=256, in_dim=6, classes=3)
        config = KFACConfig(
            lr=0.05, factor_update_freq=5, inv_update_freq=10, grad_worker_frac=grad_worker_frac
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
                assert actions == pre.plan.actions(step)  # no revision at drift_tol=0
                assert (len(actions.refresh) > 0) == (step in (0, 6, 11, 16))  # step 1 has nothing new to read: passed over
                assert actions.fold == (tuple(pre.layers) if step % 5 == 0 else ())
                indices = batch_rng.integers(0, len(x_global), 32)
                local = indices[comm.rank :: comm.world_size]
                model.zero_grad()
                loss_fn(model(Tensor(x_global[local])), y_global[local]).backward()
                ddp.sync_gradients()
                before = comm_counts(comm.tracer)
                pre.step()
                after = comm_counts(comm.tracer)
                moved = traffic.setdefault(step, {})[comm.rank] = {op: after[op][1] - before[op][1] for op in after}
                # This rank's slice of the plan: the messages whose group contains it.
                modeled = pre.plan.messages(step=step)
                assert moved["allreduce"] == sum(nbytes for members, nbytes in modeled["factor"] if comm.rank in members)
                assert moved["broadcast"] == sum(
                    nbytes for members, nbytes in modeled["eigen"] + modeled["gradient"] if comm.rank in members
                ), step
            spec = apply_measured_fractions(TestModeledFractions().small_spec(), pre)
            assert spec.factor_update_fraction == spec.eigen_update_fraction == 1.0
            assert event_total(pre, "factor_skips") == event_total(pre, "eigen_skips") == 0
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

    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_adaptive_resume_mid_epoch_bitwise_all_strategies(self, grad_worker_frac):
        """Checkpointing mid-epoch with drift tracking, interval stretching and
        adaptive damping all on (π-damped inverses, as on every path) resumes
        bit-identically under MEM-OPT, HYBRID-OPT and COMM-OPT."""
        x_global, y_global = make_problem(23, samples=256, in_dim=6, classes=3)
        config = KFACConfig(
            lr=0.05,
            factor_update_freq=1,
            inv_update_freq=2,
            grad_worker_frac=grad_worker_frac,
            drift_tol=0.05,
            max_staleness=8,
            adaptive_damping=True,
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
                precond.step(loss=float(loss.item()))
                return np.concatenate([p.grad.ravel().copy() for p in mdl.parameters()])

            # 5 warmup steps: mid-cycle w.r.t. both cadences and the drift plan.
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

    def test_adaptive_schedule_skips_eigen_work(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            factor_update_freq=1,
            inv_update_freq=2,
            drift_tol=1.0,  # everything is stale-tolerant -> maximal stretch
            max_staleness=8,
            solve_strategy="eigen",
        )
        pre = KFAC.from_config(model, config)
        run_single_process(pre, model, steps=16)
        assert event_total(pre, "eigen_skips") > 0
        spec = apply_measured_fractions(TestModeledFractions().small_spec(), pre)
        assert spec.eigen_update_fraction < 1.0
        assert spec.factor_update_fraction <= 1.0
        assert all(solver.name == "eigen" for solver in pre.solvers.values())

    def test_fixed_path_counts_are_neutral(self):
        """Opportunities are counted on each layer's own phase: a staggered plan skips nothing, after any number of steps."""
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = KFAC.from_config(model, KFACConfig(factor_update_freq=5, inv_update_freq=10))
        assert sorted(pre.plan.refresh_offsets.values()) == [1, 6]
        for steps, refreshes in ((1, 2), (6, 3), (5, 4), (10, 6)):  # in all: 1, 7, 12, 22 steps
            run_single_process(pre, model, steps=steps)
            spec = apply_measured_fractions(TestModeledFractions().small_spec(), pre)
            assert spec.factor_update_fraction == spec.eigen_update_fraction == 1.0
            assert event_total(pre, "factor_skips") == event_total(pre, "eigen_skips") == 0
            assert event_total(pre, "drift_triggers") == 0
            assert event_total(pre, "eigen_updates") == refreshes  # steps 0 + 0, 6, 11, 16, 21
            assert event_total(pre, "factor_updates") == 2 * -(-pre.steps // 5)  # 2 layers x steps {0, 5, 10, ...}

    def test_small_layer_routing(self):
        # First Linear: a_dim=5, g_dim=4 (<= 8 -> cg); second: a_dim=5, g_dim=16.
        model = MLP(4, [4], 16, rng=np.random.default_rng(5))
        config = KFACConfig(
            small_layer_dim=8, small_layer_solver="cg"
        )
        pre = KFAC.from_config(model, config)
        names = {pre.solvers[name].name for name in pre.solvers}
        assert names == {"cg", "inverse"}
        by_dim = {max(layer.a_dim, layer.g_dim): pre.solvers[name].name for name, layer in pre.layers.items()}
        assert by_dim[5] == "cg"
        assert by_dim[16] == "inverse"

    @pytest.mark.parametrize("solver", ["inverse", "cg"])
    def test_inverse_free_solvers_approximate_eigen_path(self, solver):
        # With the π-damped split, the eigen outer product equals
        # (G + γ_g I)^-1 ⊗ (A + γ_a I)^-1 exactly — the same damped system the
        # inverse and CG strategies solve — so the paths agree to solver
        # precision (the eigen path's π comes from Σλ, the others' from the
        # factors' traces: equal to rounding).  Step 0 is where the three read
        # the same factors: a later refresh reads the factors as its step
        # began, while CG's operator follows the folded ones.
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
                solve_strategy=solver,
                **(dict(cg_tol=1e-10, cg_max_iter=200) if solver == "cg" else {}),
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
            pre.step()
            for name in refresh:
                layer, solver = pre.layers[name], pre.solvers[name]
                factor_a, factor_g = found[name]
                damping_a, damping_g = split_damping(pre.damping, tikhonov_pi(factor_a, factor_g, layer.a_repr, layer.g_repr))
                assert solver.inv_a.packed().tobytes() == damped_inverse(factor_a, damping_a).tobytes()
                assert solver.inv_g.packed().tobytes() == damped_inverse(factor_g, damping_g).tobytes()
                refreshed += 1
        assert refreshed == 3 * len(pre.layers)  # steps 2, 3 and 4: step 1 would re-read step 0's factors

    def test_the_factor_reading_solver_expands_the_stored_triangle_and_round_trips(self):
        """``cg`` is the reader that needs the whole matrix: it expands the stored triangle itself, and its
        state resumes bit for bit beside packed factors."""
        config = KFACConfig(factor_update_freq=1, inv_update_freq=2, solve_strategy="cg")
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = KFAC.from_config(model, config)
        run_single_process(pre, model, steps=3)
        layer = pre.layers["layers.0"]
        assert layer.factor_a.shape == (7 * 8 // 2,)
        assert pre.plan.decomposers["layers.0", "a"] == () and pre.memory_usage()["eigen"] == 0  # nothing decomposed
        clone_model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        clone_model.load_state_dict(model.state_dict())
        clone = KFAC.from_config(clone_model, config)
        clone.load_state_dict(pre.state_dict())
        for a, b in zip(run_single_process(pre, model, steps=2), run_single_process(clone, clone_model, steps=2)):
            np.testing.assert_array_equal(a, b)

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
        pre.step()
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

    def test_adaptive_damping_moves_damping_in_training(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            factor_update_freq=1, inv_update_freq=1, adaptive_damping=True
        )
        pre = KFAC.from_config(model, config)
        assert pre.damping_controller is not None
        run_single_process(pre, model, steps=10, with_loss=True)
        counters = pre.tracer.counters()
        assert counters.get("kfac/damping_shrinks", 0) + counters.get("kfac/damping_grows", 0) > 0
        assert pre.damping != config.damping
        assert pre.tracer.gauges()["kfac/damping"] == pre.damping

    def test_trainer_feeds_loss_to_adaptive_damping(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            lr=0.05, factor_update_freq=1, inv_update_freq=1, adaptive_damping=True
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

    def test_trainer_matches_listing_one_with_drift(self):
        """With layers skipping factor updates, a ``Trainer`` stays bitwise
        identical to a hand-written Listing-1 loop (backward, ``KFAC.step()``,
        ``optimizer.step()``)."""
        config = KFACConfig(
            lr=0.05,
            factor_update_freq=1,
            inv_update_freq=2,
            drift_tol=1.0,
            max_staleness=8,
        )
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
                pre.step(lr=0.05)
                optimizer.step()
                losses.append(float(loss.item()))
            results.append(
                (losses, np.concatenate([np.asarray(p.data, dtype=np.float64).ravel().copy() for p in model.parameters()]))
            )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_scheduler_state_survives_via_from_config_round_trip(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig.adaptive(factor_update_freq=1, inv_update_freq=2, max_staleness=16)
        pre = KFAC.from_config(model, config)
        run_single_process(pre, model, steps=5, with_loss=True)
        state = pre.state_dict()
        assert "scheduler" in state and "solvers" in state and "damping_controller" in state
        # Config dict in the state round-trips all the adaptive knobs.
        assert KFACConfig.from_dict(state["config"]).drift_tol == config.drift_tol



# ---------------------------------------------------------------------------
# Cost-model integration
# ---------------------------------------------------------------------------


class TestModeledFractions:
    def small_spec(self, **overrides):
        layers = [
            LayerShapeInfo(name="fc1", a_dim=33, g_dim=64, grad_numel=33 * 64),
            LayerShapeInfo(name="fc2", a_dim=65, g_dim=10, grad_numel=65 * 10),
        ]
        defaults = dict(
            name="toy",
            layers=layers,
            param_count=sum(l.grad_numel for l in layers),
            local_batch_size=32,
            baseline_compute_time=0.1,
            config=KFACConfig(factor_update_freq=10, inv_update_freq=100),
        )
        defaults.update(overrides)
        return KFACWorkloadSpec(**defaults)

    def test_fractions_scale_stage_times(self):
        model = IterationTimeModel()
        full = model.kfac_breakdown(self.small_spec(), world_size=8, grad_worker_frac=1.0)
        half = model.kfac_breakdown(
            self.small_spec(factor_update_fraction=0.5, eigen_update_fraction=0.25),
            world_size=8,
            grad_worker_frac=1.0,
        )
        assert half.factor_compute == pytest.approx(full.factor_compute * 0.5)
        assert half.factor_allreduce == pytest.approx(full.factor_allreduce * 0.5)
        assert half.eigen_decomposition == pytest.approx(full.eigen_decomposition * 0.25)
        assert half.eigen_broadcast == pytest.approx(full.eigen_broadcast * 0.25)
        assert half.precondition == full.precondition  # per-iteration stages untouched

    def test_fractions_scale_comm_schedule(self):
        full = model_comm_schedule(self.small_spec(), world_size=8, grad_worker_frac=0.5)
        skipped = model_comm_schedule(
            self.small_spec(factor_update_fraction=0.5, eigen_update_fraction=0.5),
            world_size=8,
            grad_worker_frac=0.5,
        )
        assert skipped.kfac_comm_time < full.kfac_comm_time
        assert skipped.iteration_time < full.iteration_time

    def test_apply_measured_fractions_from_live_run(self):
        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        config = KFACConfig(
            factor_update_freq=1,
            inv_update_freq=2,
            drift_tol=1.0,
            max_staleness=8,
        )
        pre = KFAC.from_config(model, config)
        run_single_process(pre, model, steps=16)
        spec = apply_measured_fractions(self.small_spec(), pre)
        base_folds, base_refreshes = pre.plan.base_updates(16)
        assert spec.eigen_update_fraction == event_total(pre, "eigen_updates") / base_refreshes < 1.0
        assert spec.factor_update_fraction == event_total(pre, "factor_updates") / base_folds
        lean = IterationTimeModel().kfac_breakdown(spec, world_size=8, grad_worker_frac=1.0)
        full = IterationTimeModel().kfac_breakdown(self.small_spec(), world_size=8, grad_worker_frac=1.0)
        assert lean.eigen_decomposition < full.eigen_decomposition

    def test_a_preconditioner_that_never_stepped_measures_unity(self):
        pre = KFAC(MLP(6, [16], 3, rng=np.random.default_rng(5)))
        spec = apply_measured_fractions(self.small_spec(), pre)
        assert (spec.factor_update_fraction, spec.eigen_update_fraction) == (1.0, 1.0)
