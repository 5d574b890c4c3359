"""Tests for the modular preconditioner framework.

Covers the public API: `KFACConfig` validation and serialization,
checkpoint/resume of `KFAC` and the `Trainer` that drives it (round-trips
bit-identical under every distribution strategy on the threaded multi-worker
backend), and the fixed layer-handler table `LAYER_HANDLERS` that `KFAC` and
the shape models read (Embedding among its rows).
"""

import pickle
import re

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import DistributedDataParallel, run_spmd
from repro.experiments import WORKLOAD_BUILDERS, build_workload, collect_layer_shapes
from repro.kfac import (
    CHECKPOINT_FORMAT,
    KFAC,
    FactorRepr,
    KFACConfig,
    LAYER_HANDLERS,
    KFACBatchNorm2dLayer,
    KFACConv2dLayer,
    KFACEmbeddingLayer,
    KFACLayerNormLayer,
    KFACLinearLayer,
    make_kfac_layer,
    pack_eigen,
    unpack_eigen_repr,
)
from repro.kfac.kmath import EigenDecomposition, TriangleView, expand_symmetric, triangle_dim
from repro.models import MLP
from repro.tensor import PrecisionPolicy, Tensor
from repro.training import Trainer

from counters import event_total, layer_events

RNG = np.random.default_rng(101)


def make_problem(seed=0, samples=256, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


class TestKFACConfig:
    def test_defaults_are_valid(self):
        config = KFACConfig()
        assert config.grad_worker_frac == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(factor_update_freq=0),
            dict(inv_update_freq=0),
            dict(max_staleness=50, drift_tol=0.05),  # positive, but below inv_update_freq=100
            dict(max_staleness=100, drift_tol=0.05),  # equal to inv_update_freq: the drift schedule stretches nothing
            dict(factor_decay=0.0),
            dict(factor_decay=1.5),
            dict(damping=0.0),
            dict(kl_clip=0.0),
            dict(grad_worker_frac=0.0),
            dict(grad_worker_frac=1.5),
            dict(precision="fp8"),
            dict(assignment_balance="latency"),
            dict(lr=-1.0),  # lr=0 stays legal: warm-up schedules pass it
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            KFACConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field, paths",
        [(dict(compute_eigen_outer=False), "compute_eigen_outer", "['inverse']"),
         (dict(compute_eigen_outer=False, solve_strategy="cg"), "compute_eigen_outer", "['cg']"),
         (dict(compute_eigen_outer=False, small_layer_dim=8), "compute_eigen_outer", "['cg', 'inverse']"),
         (dict(cg_tol=1e-6), "cg_tol", "['inverse']"),
         (dict(cg_max_iter=5, solve_strategy="eigen"), "cg_max_iter", "['eigen']"),
         (dict(cg_tol=1e-6, small_layer_dim=8, small_layer_solver="eigen"), "cg_tol", "['eigen', 'inverse']"),
         (dict(small_layer_solver="eigen"), "small_layer_solver", "['inverse']"),
         (dict(small_layer_dim=8, small_layer_solver="inverse"), "small_layer_dim", "['inverse']"),
         (dict(small_layer_dim=8, solve_strategy="cg"), "small_layer_dim", "['cg']"),
         (dict(max_staleness=200), "max_staleness", "['inverse']")],
    )  # fmt: skip
    def test_a_value_no_reachable_solve_path_reads_is_refused_naming_the_field_and_the_paths(self, kwargs, field, paths):
        """A non-default value is refused unless a path of ``{solve_strategy}`` (plus ``small_layer_solver``
        when ``small_layer_dim > 0``) reads it; code and dicts alike, and a checkpoint of defaults still loads."""
        message = rf"^{field}=.* is never read: .* \(solve paths {re.escape(paths)}\)$"
        with pytest.raises(ValueError, match=message):
            KFACConfig(**kwargs)
        with pytest.raises(ValueError, match=message):
            KFACConfig.from_dict(dict(KFACConfig().to_dict(), **kwargs))
        assert KFACConfig.from_dict(KFACConfig().to_dict()) == KFACConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(compute_eigen_outer=False, solve_strategy="eigen"),
         dict(compute_eigen_outer=False, small_layer_dim=8, small_layer_solver="eigen"),
         dict(cg_tol=1e-6, cg_max_iter=5, solve_strategy="cg"),
         dict(cg_tol=1e-6, small_layer_dim=8),
         dict(small_layer_dim=8, small_layer_solver="eigen", solve_strategy="cg"),
         dict(max_staleness=200, drift_tol=0.05)],
    )  # fmt: skip
    def test_a_value_a_reachable_path_reads_is_accepted(self, kwargs):
        config = KFACConfig(**kwargs)
        assert KFACConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field", ["lr", "factor_decay", "damping", "kl_clip", "grad_worker_frac", "bucket_cap_mb", "drift_tol", "cg_tol"]
    )
    def test_a_non_finite_float_is_refused_naming_the_field(self, field, value):
        """NaN fails no ``<=`` check (``drift_tol=nan`` would silently turn drift off): code and dicts alike refuse it."""
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            KFACConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            KFACConfig.from_dict(dict(KFACConfig().to_dict(), **{field: value}))

    @pytest.mark.parametrize(
        "field, value, expected",
        [("compute_eigen_outer", "false", None), ("adaptive_damping", "no", None), ("adaptive_damping", 0.5, None),
         ("adaptive_damping", np.bool_(True), True), ("factor_update_freq", 2.5, None), ("cg_max_iter", 1.9, None),
         ("small_layer_dim", -0.5, None), ("max_staleness", True, None), ("inv_update_freq", np.bool_(True), None),
         ("inv_update_freq", np.int64(7), 7), ("factor_update_freq", 4.0, 4),
         ("lr", True, None), ("damping", "0.01", None), ("bucket_cap_mb", True, None), ("kl_clip", np.bool_(True), None),
         ("grad_worker_frac", "1", None), ("bucket_cap_mb", "auto", None),
         ("lr", 1, 1.0), ("damping", np.float32(0.5), 0.5), ("bucket_cap_mb", np.int64(2), 2.0)],
    )  # fmt: skip
    def test_a_value_the_cast_would_change_is_refused_naming_the_field(self, field, value, expected):
        """Bools take only bools; integers take integers that are not bools, or floats with no fractional part;
        floats take real numbers that are not bools (``float(True)`` is 1.0, ``float("0.01")`` parses)."""
        for build in (lambda: KFACConfig(**{field: value}), lambda: KFACConfig.from_dict({field: value})):
            if expected is None:
                with pytest.raises(ValueError, match=rf"^{field} must be an? (bool|integer|number), got"):
                    build()
            else:
                config = build()
                assert getattr(config, field) == expected and type(getattr(config, field)) is type(expected)

    def test_dict_round_trip(self):
        config = KFACConfig(lr=0.05, damping=0.01, factor_update_freq=2, inv_update_freq=6, precision="fp16")
        data = config.to_dict()
        assert data["damping"] == 0.01
        assert KFACConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            KFACConfig.from_dict({"lr": 0.1, "momentum": 0.9})

    @pytest.mark.parametrize(
        "key, value",
        [("comm_overlap", False), ("adaptive_schedule", False), ("triangular_comm", False), ("dense_factors", False),
         ("kernel_backend", "reference")],
    )  # fmt: skip
    def test_a_retired_key_raises_like_any_unknown_key(self, key, value):
        with pytest.raises(ValueError, match=rf"unknown KFACConfig fields: \['{key}'\]"):
            KFACConfig.from_dict(dict(KFACConfig().to_dict(), **{key: value}))

    def test_the_config_has_nineteen_fields(self):
        """Every field is a hyperparameter that changes a result, a byte or a time; none selects a registry member."""
        import dataclasses

        assert len(dataclasses.fields(KFACConfig)) == 19

    def test_replace_revalidates(self):
        config = KFACConfig()
        assert config.replace(damping=0.5).damping == 0.5
        with pytest.raises(ValueError):
            config.replace(damping=-1.0)

    def test_presets_select_strategies(self):
        assert KFACConfig.mem_opt(8).grad_worker_frac == pytest.approx(1 / 8)
        assert KFACConfig.comm_opt().grad_worker_frac == 1.0
        assert KFACConfig.hybrid(0.25).grad_worker_frac == 0.25
        with pytest.raises(ValueError):
            KFACConfig.mem_opt(0)

    def test_precision_policy_helper(self):
        assert KFACConfig(precision="fp64").precision_policy() == PrecisionPolicy.fp64()

    def test_kfac_from_config_and_config_property(self):
        model = MLP(4, [8], 2, rng=np.random.default_rng(0))
        config = KFACConfig(lr=0.2, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=1.0)
        pre = KFAC.from_config(model, config)
        assert pre.config == config
        assert pre.lr == 0.2

    def test_from_config_rejects_non_config(self):
        model = MLP(4, [8], 2, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            KFAC.from_config(model, {"lr": 0.1})

    def test_workload_config_unification(self):
        from repro.experiments.configs import SMALL_WORKLOADS

        config = SMALL_WORKLOADS["mlp"].kfac_config(grad_worker_frac=0.5)
        assert isinstance(config, KFACConfig)
        assert config.lr == SMALL_WORKLOADS["mlp"].kfac_lr
        assert config.grad_worker_frac == 0.5


class TestConfigPlacesTheWork:
    """``KFACConfig`` is the one statement of a run: KFAC takes no strategy or precision object beside it."""

    @staticmethod
    def model():
        return MLP(4, [8], 2, rng=np.random.default_rng(0))

    def test_kfac_and_the_plan_builder_take_no_strategy_or_precision_parameter(self):
        import inspect

        params = inspect.signature(KFAC.__init__).parameters
        assert "strategy" not in params and "precision" not in params
        assert list(inspect.signature(KFACConfig.distribution_plan).parameters) == ["self", "layers", "world_size"]

    def test_a_strategy_keyword_is_refused(self):
        with pytest.raises(TypeError, match="strategy"):
            KFAC(self.model(), strategy=object())

    def test_a_precision_policy_object_is_refused(self):
        with pytest.raises(TypeError, match="precision"):
            KFAC(self.model(), precision=PrecisionPolicy.fp64())
        with pytest.raises(TypeError, match="precision"):
            KFACConfig(precision=PrecisionPolicy.fp32())

    def test_precision_is_a_config_name(self):
        pre = KFAC(self.model(), precision="fp16")
        assert pre.config.precision == "fp16"
        assert pre.precision == pre.plan.policy.precision == KFACConfig(precision="fp16").precision_policy()
        assert pre.plan.policy.precision.factor_dtype == np.float16

    def test_repro_kfac_has_no_distribution_strategy_class(self):
        import repro.kfac
        import repro.kfac.strategy

        for name in ("DistributionStrategy", "CommOptStrategy", "HybridOptStrategy", "MemOptStrategy"):
            assert not hasattr(repro.kfac, name) and not hasattr(repro.kfac.strategy, name)

    def test_grad_worker_frac_alone_picks_the_scheme(self):
        def program(comm):
            return {
                frac: KFAC(self.model(), grad_worker_frac=frac, comm=comm).plan.scheme for frac in (0.25, 0.5, 1.0)
            }

        for schemes in run_spmd(4, program):
            assert schemes == {0.25: "MEM-OPT", 0.5: "HYBRID-OPT", 1.0: "COMM-OPT"}
        assert KFAC(self.model(), grad_worker_frac=0.25).plan.scheme == "COMM-OPT"  # one rank is every rank

    def test_the_plan_is_the_one_the_config_builds(self):
        config = KFACConfig(
            grad_worker_frac=0.5, assignment_balance="memory", factor_update_freq=2, inv_update_freq=6,
            bucket_cap_mb=0.002,
        )  # fmt: skip

        def program(comm):
            pre = KFAC.from_config(self.model(), config, comm=comm)
            shapes = [layer.shape_info() for layer in pre.layers.values()]
            return pre.plan.digest(), config.distribution_plan(shapes, comm.world_size).digest()

        digests = run_spmd(4, program)
        assert all(ours == built == digests[0][0] for ours, built in digests)
        assert KFAC(self.model(), **config.to_dict()).plan.digest() != digests[0][0]  # world 1 places it apart

    def test_kfac_keeps_only_lr_and_damping_beside_its_config(self):
        """``factor_decay``, ``kl_clip`` and ``compute_eigen_outer`` are read from the config, so no second
        copy can drift from it; ``lr`` and ``damping`` change during a run."""
        config = KFACConfig(
            lr=0.2, damping=0.01, factor_decay=0.5, kl_clip=0.01, compute_eigen_outer=False, solve_strategy="eigen",
        )  # fmt: skip
        pre = KFAC(self.model(), config)
        for name in ("factor_decay", "kl_clip", "compute_eigen_outer", "damping_pi"):
            assert not hasattr(pre, name)
        assert (pre.lr, pre.damping) == (0.2, 0.01)
        pre.lr = 0.3
        assert pre.config == config.replace(lr=0.3)


class TestEigenBroadcastPrecision:
    def test_packed_broadcast_honors_inverse_dtype(self):
        """fp64 eigen state must survive the wire without a float32 truncation."""
        from repro.distributed import BroadcastSpec, OverlapScheduler
        from repro.kfac import FactorRepr

        n = 5
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((n, n))
        sym = (mat + mat.T).astype(np.float64)
        values, vectors = np.linalg.eigh(sym)
        eigen = EigenDecomposition(eigenvectors=vectors, eigenvalues=values)
        repr_ = FactorRepr.dense(n)

        def program(comm):
            received = []
            spec = BroadcastSpec(
                key="eigen",
                src=0,
                group=(0, 1),
                shape=(repr_.packed_eigen_numel,),
                dtype=np.dtype(np.float64),
                payload=(lambda: pack_eigen(eigen, np.float64)) if comm.rank == 0 else None,
                on_complete=lambda flat: received.append(unpack_eigen_repr(flat, repr_, np.float64)),
            )
            OverlapScheduler(comm).run_broadcasts([spec])
            return received[0]

        for received in run_spmd(2, program):
            assert received.eigenvalues.dtype == np.float64
            assert received.eigenvectors.dtype == np.float64
            # Exact: no intermediate float32 cast anywhere on the path.
            np.testing.assert_array_equal(received.eigenvalues, values)
            np.testing.assert_array_equal(received.eigenvectors, vectors)

    def test_pack_unpack_round_trip_sizes_per_representation(self):
        """Structured decompositions pack to their O(F) payloads and unpack exactly."""
        from repro.kfac import FactorRepr

        rng = np.random.default_rng(1)
        cases = [
            (FactorRepr.dense(4), rng.standard_normal((4, 4)), 4 + 16),
            (FactorRepr.diagonal(6), None, 6),  # the identity eigenbasis never hits the wire
            (FactorRepr(6, 2), rng.standard_normal((3, 2, 2)), 6 + 3 * 4),
        ]
        for repr_, vectors, numel in cases:
            eigen = EigenDecomposition(eigenvectors=vectors, eigenvalues=rng.random(repr_.dim))
            packed = pack_eigen(eigen, np.float64)
            assert packed.shape == (numel,) == (repr_.packed_eigen_numel,)
            restored = unpack_eigen_repr(packed, repr_, np.float64)
            np.testing.assert_array_equal(restored.eigenvalues, eigen.eigenvalues)
            if vectors is None:
                assert restored.eigenvectors is None
            else:
                np.testing.assert_array_equal(restored.eigenvectors, vectors)
        with pytest.raises(ValueError, match="expected"):
            unpack_eigen_repr(np.zeros(7), FactorRepr.diagonal(6), np.float64)

    def test_single_member_group_short_circuits(self):
        """A group of one moves nothing: the decompositions stay exactly as the
        kernel backend returned them — same dtype, same memory layout (a
        pack/unpack round trip would re-lay them out row-major)."""
        x, y = make_problem()
        model = MLP(6, [8], 3, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, precision="fp64", solve_strategy="eigen")
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.step()
        for name, layer in pre.layers.items():
            solver = pre.solvers[name]
            for eigen, factor in ((solver.eigen_a, layer.factor_a), (solver.eigen_g, layer.factor_g)):
                computed = pre.kernels.symmetric_eigen(factor, compute_dtype=np.float64).eigenvectors
                assert eigen.eigenvectors.dtype == np.float64
                np.testing.assert_array_equal(eigen.eigenvectors, computed)
                assert eigen.eigenvectors.flags.c_contiguous == computed.flags.c_contiguous


def train_steps(model, pre, opt, x, y, steps, batch=32):
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(5)
    for _ in range(steps):
        idx = rng.integers(0, len(x), batch)
        opt.zero_grad()
        loss_fn(model(Tensor(x[idx])), y[idx]).backward()
        pre.step()
        opt.step()


class TestStateDictResume:
    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_state_dict_round_trip_single_process_bitwise(self, solver):
        """Checkpoint -> restore -> next step must reproduce the gradients exactly."""
        x, y = make_problem(1)
        config = KFACConfig(lr=0.1, factor_update_freq=2, inv_update_freq=4, solve_strategy=solver)

        model_a = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre_a = KFAC.from_config(model_a, config)
        opt_a = optim.SGD(model_a.parameters(), lr=0.1, momentum=0.9)
        train_steps(model_a, pre_a, opt_a, x, y, steps=4)
        checkpoint = pre_a.state_dict()
        model_state = model_a.state_dict()

        # Continue the original run one more step (the next step performs both
        # a factor update and an eigen update: steps == 4, freqs are 2 and 4).
        loss_fn = nn.CrossEntropyLoss()
        batch = np.random.default_rng(9).integers(0, len(x), 32)
        model_a.zero_grad()
        loss_fn(model_a(Tensor(x[batch])), y[batch]).backward()
        pre_a.step()
        grads_a = np.concatenate([p.grad.ravel() for p in model_a.parameters()])

        # Restore into a fresh model + preconditioner and repeat that step.
        model_b = MLP(6, [12], 3, rng=np.random.default_rng(77))
        model_b.load_state_dict(model_state)
        pre_b = KFAC.from_config(model_b, config)
        pre_b.load_state_dict(checkpoint)
        assert pre_b.steps == 4
        model_b.zero_grad()
        loss_fn(model_b(Tensor(x[batch])), y[batch]).backward()
        pre_b.step()
        grads_b = np.concatenate([p.grad.ravel() for p in model_b.parameters()])

        np.testing.assert_array_equal(grads_a, grads_b)

    def test_resume_between_eigen_refreshes_keeps_the_eigenvector_layout(self):
        """Past the stacked-``eigh`` threshold ``syevd`` returns a column-major basis; a checkpoint that
        re-laid it out row-major made BLAS round the resumed run's next precondition differently
        (found by the generated resume suite in ``test_property_invariants.py``)."""
        x, y = make_problem(2, in_dim=33)
        config = KFACConfig(lr=0.1, factor_update_freq=1, inv_update_freq=4, solve_strategy="eigen")
        model_a = MLP(33, [40], 3, rng=np.random.default_rng(3))
        pre_a = KFAC.from_config(model_a, config)
        opt_a = optim.SGD(model_a.parameters(), lr=0.1)
        train_steps(model_a, pre_a, opt_a, x, y, steps=2)  # the next step reuses step 0's decompositions
        checkpoint, model_state = pre_a.state_dict(), model_a.state_dict()
        stored = checkpoint["solvers"]["layers.0"]["eigen_a"]["eigenvectors"]
        assert stored.flags.f_contiguous and not np.shares_memory(stored, pre_a.solvers["layers.0"].eigen_a.eigenvectors)

        model_b = MLP(33, [40], 3, rng=np.random.default_rng(77))
        model_b.load_state_dict(model_state)
        pre_b = KFAC.from_config(model_b, config)
        pre_b.load_state_dict(checkpoint)
        grads = []
        for model, pre in ((model_a, pre_a), (model_b, pre_b)):
            model.zero_grad()
            nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
            pre.step()
            grads.append(np.concatenate([p.grad.ravel() for p in model.parameters()]))
        np.testing.assert_array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("cadence, steps_before", [((2, 4), 5), ((5, 10), 3), ((5, 10), 8)])
    def test_resume_of_checkpoint_without_plan_stays_on_cadence(self, cadence, steps_before):
        """A checkpoint stores no plan (with drift off, no schedule either): resumed mid-interval it must
        refresh when the uninterrupted run does -- on the distribution plan's offsets, before, between
        and after two staggered steps -- bit for bit."""
        x, y = make_problem(6)
        config = KFACConfig(lr=0.1, factor_update_freq=cadence[0], inv_update_freq=cadence[1])

        def one_step(model, pre, batch):
            model.zero_grad()
            nn.CrossEntropyLoss()(model(Tensor(x[batch])), y[batch]).backward()
            pre.step()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        model_a = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre_a = KFAC(model_a, config)
        assert sorted(pre_a.plan.refresh_offsets.values()) == ([1, 6] if cadence == (5, 10) else [0, 0])
        train_steps(model_a, pre_a, optim.SGD(model_a.parameters(), lr=0.1), x, y, steps=steps_before)
        state = pre_a.state_dict()
        assert "scheduler" not in state
        model_b = MLP(6, [12], 3, rng=np.random.default_rng(77))
        model_b.load_state_dict(model_a.state_dict())
        pre_b = KFAC(model_b, KFACConfig.from_dict(state["config"]))
        pre_b.load_state_dict(state)
        assert pre_b.config == config
        updates_before = layer_events(pre_a.tracer, "eigen_updates", pre_a.layers)

        batch_rng = np.random.default_rng(9)
        for step in range(steps_before, steps_before + cadence[1]):  # one whole interval: every layer refreshes once
            assert pre_b.actions() == pre_a.actions() == pre_b.plan.actions(step)
            batch = batch_rng.integers(0, len(x), 32)
            np.testing.assert_array_equal(one_step(model_a, pre_a, batch), one_step(model_b, pre_b, batch))
        # The resumed run's registry counts its own decisions: those of the uninterrupted run over the same steps.
        assert pre_b.tracer is not pre_a.tracer
        factor_updates = layer_events(pre_b.tracer, "factor_updates", pre_b.layers)
        eigen_updates = layer_events(pre_b.tracer, "eigen_updates", pre_b.layers)
        for name, before in updates_before.items():
            resumed_updates = layer_events(pre_a.tracer, "eigen_updates", [name])[name] - before
            assert (factor_updates[name], eigen_updates[name]) == (cadence[1] // cadence[0], resumed_updates), name
            assert resumed_updates == 1

    def test_restored_run_leaves_the_checkpoint_arrays_alone(self):
        """Statistics are accumulated, averaged and folded in place, so a restore must
        copy what it loads: one checkpoint restored twice resumes identically."""
        x, y = make_problem(2)
        model = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre = KFAC(model, factor_update_freq=2, inv_update_freq=2)
        train_steps(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=2)
        model.zero_grad()
        nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()  # a pending window
        state = pre.state_dict()
        model_state = model.state_dict()
        frozen = {name: {k: np.copy(v) for k, v in layer.items() if isinstance(v, np.ndarray)}
                  for name, layer in state["layers"].items()}

        def resume():
            clone = MLP(6, [12], 3, rng=np.random.default_rng(5))
            clone.load_state_dict(model_state)
            pre2 = KFAC(clone, factor_update_freq=2, inv_update_freq=2)
            pre2.load_state_dict(state)
            clone.zero_grad()
            nn.CrossEntropyLoss()(clone(Tensor(x[16:32])), y[16:32]).backward()  # second micro-batch, same window
            pre2.step()
            return np.concatenate([p.grad.ravel() for p in clone.parameters()])

        first = resume()
        for name, arrays in frozen.items():
            for key, value in arrays.items():
                np.testing.assert_array_equal(state["layers"][name][key], value, err_msg=f"{name}.{key}")
        np.testing.assert_array_equal(resume(), first)

    def test_state_dict_includes_pending_accumulators(self):
        """A checkpoint between backward() and step() keeps the pending statistics."""
        x, y = make_problem(2)
        model = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre = KFAC(model, factor_update_freq=2, inv_update_freq=2)
        train_steps(model, pre, optim.SGD(model.parameters(), lr=0.05), x, y, steps=2)
        model.zero_grad()
        nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()  # steps == 2 -> hooks accumulate
        state = pre.state_dict()
        layer_state = next(iter(state["layers"].values()))
        assert layer_state["a_accum"] is not None
        assert layer_state["a_count"] > 0
        clone = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre2 = KFAC(clone, factor_update_freq=2, inv_update_freq=2)
        pre2.load_state_dict(state)
        restored = next(iter(pre2.layers.values()))
        np.testing.assert_array_equal(restored.accumulators()[0], layer_state["a_accum"])

    def test_load_state_dict_rejects_mismatched_layers(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(3))
        other = MLP(6, [12, 12], 3, rng=np.random.default_rng(3))
        x, y = make_problem(3)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()
        pre.step()
        pre_other = KFAC(other)
        with pytest.raises(ValueError, match="does not match"):
            pre_other.load_state_dict(pre.state_dict())

    def test_load_state_dict_rejects_wrong_shapes(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(3))
        clone = MLP(6, [12], 3, rng=np.random.default_rng(3))
        x, y = make_problem(4)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        nn.CrossEntropyLoss()(model(Tensor(x[:16])), y[:16]).backward()
        pre.step()
        state = pre.state_dict()
        first = next(iter(state["layers"]))
        state["layers"][first]["factor_a"] = np.eye(2, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            KFAC(clone).load_state_dict(state)

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_distributed_resume_bitwise_all_strategies(self, grad_worker_frac, solver):
        """Acceptance criterion: state_dict() -> load_state_dict() reproduces
        identical preconditioned gradients on the next step() for MEM-OPT,
        HYBRID-OPT and COMM-OPT under the threaded multi-worker communicator."""
        x_global, y_global = make_problem(11, samples=256, in_dim=6, classes=3)
        config = KFACConfig(
            lr=0.05, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=grad_worker_frac, solve_strategy=solver
        )

        def program(comm):
            loss_fn = nn.CrossEntropyLoss()
            model = MLP(6, [16], 3, rng=np.random.default_rng(comm.rank + 1))
            ddp = DistributedDataParallel(model, comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pre = KFAC.from_config(model, config, comm=comm)
            batch_rng = np.random.default_rng(99)
            for _ in range(4):
                indices = batch_rng.integers(0, len(x_global), 32)
                local = indices[comm.rank :: comm.world_size]
                optimizer.zero_grad()
                loss_fn(model(Tensor(x_global[local])), y_global[local]).backward()
                ddp.sync_gradients()
                pre.step()
                optimizer.step()

            checkpoint = pre.state_dict()  # per-rank state (eigen placement differs by strategy)
            model_state = model.state_dict()
            next_batch = batch_rng.integers(0, len(x_global), 32)
            local = next_batch[comm.rank :: comm.world_size]

            # Original run: one more preconditioned step.
            model.zero_grad()
            loss_fn(model(Tensor(x_global[local])), y_global[local]).backward()
            ddp.sync_gradients()
            pre.step()
            grads_original = np.concatenate([p.grad.ravel() for p in model.parameters()])

            # Restored run: fresh model + preconditioner, same step.
            restored = MLP(6, [16], 3, rng=np.random.default_rng(1234 + comm.rank))
            restored.load_state_dict(model_state)
            restored_ddp = DistributedDataParallel(restored, comm)
            pre2 = KFAC.from_config(restored, config, comm=comm)
            pre2.load_state_dict(checkpoint)
            restored.zero_grad()
            loss_fn(restored(Tensor(x_global[local])), y_global[local]).backward()
            restored_ddp.sync_gradients()
            pre2.step()
            grads_restored = np.concatenate([p.grad.ravel() for p in restored.parameters()])
            return grads_original, grads_restored

        results = run_spmd(4, program)
        for grads_original, grads_restored in results:
            np.testing.assert_array_equal(grads_original, grads_restored)

    def test_checkpoint_without_a_held_factor_raises_naming_layer_and_factor(self):
        x, y = make_problem(4)
        model = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        train_steps(model, pre, optim.SGD(model.parameters(), lr=0.1), x, y, steps=2)
        state = pre.state_dict()
        state["layers"]["layers.2"]["factor_g"] = None  # e.g. another rank's (or another strategy's) checkpoint
        clone = KFAC(MLP(6, [12], 3, rng=np.random.default_rng(3)), factor_update_freq=1, inv_update_freq=1)
        with pytest.raises(ValueError, match=r"no G factor for layer 'layers.2', which rank 0 holds"):
            clone.load_state_dict(state)
        # Before the first factor update nobody has factors yet: nothing to miss.
        fresh = KFAC(MLP(6, [12], 3, rng=np.random.default_rng(3)))
        clone.load_state_dict(fresh.state_dict())
        assert clone.steps == 0 and clone.memory_usage()["factors"] == 0

    def test_trainer_checkpoint_includes_preconditioner(self):
        x, y = make_problem(6)
        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            features, labels = batch
            return loss_fn(m(Tensor(features)), labels)

        model = MLP(6, [12], 3, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1), forward_loss, preconditioner=pre)
        trainer.train_step((x[:32], y[:32]))
        state = trainer.state_dict()
        assert state["iterations"] == 1
        assert state["preconditioner"]["steps"] == 1

        model2 = MLP(6, [12], 3, rng=np.random.default_rng(9))
        pre2 = KFAC(model2, factor_update_freq=1, inv_update_freq=1)
        trainer2 = Trainer(model2, optim.SGD(model2.parameters(), lr=0.1), forward_loss, preconditioner=pre2)
        trainer2.load_state_dict(state)
        assert trainer2.iterations == 1
        assert pre2.steps == 1
        np.testing.assert_array_equal(model2.layers[0].weight.data, model.layers[0].weight.data)

    def test_trainer_checkpoint_restores_scheduler_and_scaler(self):
        x, y = make_problem(7)
        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            features, labels = batch
            return loss_fn(m(Tensor(features)), labels)

        def build():
            model = MLP(6, [12], 3, rng=np.random.default_rng(0))
            opt = optim.SGD(model.parameters(), lr=0.1)
            sched = optim.WarmupConstant(opt, warmup_steps=10)
            scaler = optim.GradScaler(init_scale=2.0 ** 8)
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, grad_scaler=scaler)
            return Trainer(
                model, opt, forward_loss, preconditioner=pre, lr_scheduler=sched, grad_scaler=scaler
            )

        trainer = build()
        for _ in range(3):
            trainer.train_step((x[:32], y[:32]))
        state = trainer.state_dict()
        assert state["lr_scheduler"]["last_step"] == 3
        assert state["grad_scaler"]["scale"] == 2.0 ** 8

        resumed = build()
        resumed.load_state_dict(state)
        assert resumed.lr_scheduler.last_step == 3
        assert resumed.grad_scaler.get_scale() == 2.0 ** 8
        # The restored scheduler re-applies the warmup LR it had reached.
        assert resumed.optimizer.param_groups[0]["lr"] == pytest.approx(
            trainer.optimizer.param_groups[0]["lr"]
        )

    def test_trainer_checkpoint_component_mismatch_raises(self):
        x, y = make_problem(8)
        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            features, labels = batch
            return loss_fn(m(Tensor(features)), labels)

        def as_it_stands(trainer):
            params = [p.data.copy() for p in trainer.model.parameters()]
            return params, pickle.dumps(trainer.optimizer.state_dict())

        model = MLP(6, [12], 3, rng=np.random.default_rng(0))
        plain = Trainer(model, optim.SGD(model.parameters(), lr=0.1, momentum=0.9), forward_loss)
        plain.train_step((x[:32], y[:32]))

        model2 = MLP(6, [12], 3, rng=np.random.default_rng(1))
        with_pre = Trainer(
            model2,
            optim.SGD(model2.parameters(), lr=0.1, momentum=0.9),
            forward_loss,
            preconditioner=KFAC(model2, factor_update_freq=1, inv_update_freq=1),
        )
        with_pre.train_step((x[32:64], y[32:64]))

        # Both directions are refused before anything is loaded: weights and optimizer state stay as they were.
        for target, source, match in ((with_pre, plain, "stale"), (plain, with_pre, "contains preconditioner state")):
            params, optimizer_state = as_it_stands(target)
            with pytest.raises(ValueError, match=match):
                target.load_state_dict(source.state_dict())
            after_params, after_optimizer_state = as_it_stands(target)
            assert all(np.array_equal(a, b) for a, b in zip(params, after_params))
            assert after_optimizer_state == optimizer_state

    def test_a_component_refusing_its_state_rolls_the_whole_trainer_back(self):
        """The preconditioner refuses after the model and optimizer already loaded: they are restored too."""
        x, y = make_problem(9)
        loss_fn = nn.CrossEntropyLoss()

        def build(seed):
            model = MLP(6, [12], 3, rng=np.random.default_rng(seed))
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
            opt = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
            return Trainer(model, opt, lambda m, b: loss_fn(m(Tensor(b[0])), b[1]), preconditioner=pre)

        def as_it_stands(trainer):
            params = [p.data.copy() for p in trainer.model.parameters()]
            return params, pickle.dumps(trainer.optimizer.state_dict()), pickle.dumps(trainer.preconditioner.state_dict())

        source, target = build(0), build(1)
        source.train_step((x[:32], y[:32]))
        target.train_step((x[32:64], y[32:64]))
        state = source.state_dict()
        state["preconditioner"]["layers"]["layers.0"]["factor_a"] = None  # a held factor, absent after step 0
        before = as_it_stands(target)
        with pytest.raises(ValueError, match=r"no A factor for layer 'layers.0'"):
            target.load_state_dict(state)
        after = as_it_stands(target)
        assert all(np.array_equal(a, b) for a, b in zip(before[0], after[0]))
        assert after[1:] == before[1:]
        assert target.iterations == 1
        # The rolled-back trainer trains on as it would have.
        twin = build(1)
        twin.train_step((x[32:64], y[32:64]))
        for trainer in (target, twin):
            trainer.train_step((x[64:96], y[64:96]))
        for a, b in zip(target.model.parameters(), twin.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_trainer_rejects_duck_typed_preconditioner(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(0))

        class NotAPreconditioner:
            def step(self, lr=None):
                pass

        with pytest.raises(TypeError, match="KFAC"):
            Trainer(model, optim.SGD(model.parameters(), lr=0.1), lambda m, b: None, preconditioner=NotAPreconditioner())


class TestOneCheckpointFormat:
    """``KFAC`` and ``Trainer`` write :data:`CHECKPOINT_FORMAT`, refuse any other, read only what their config
    writes, and a restore never changes the plan."""

    @staticmethod
    def forward_loss(model, batch):
        return nn.CrossEntropyLoss()(model(Tensor(batch[0])), batch[1])

    @pytest.mark.parametrize("found", [None, 0, 1, 2, 3, 4, 6], ids=["no-format", *(f"format-{n}" for n in (0, 1, 2, 3, 4, 6))])
    def test_another_format_is_refused_naming_both_numbers(self, found):
        x, y = make_problem(4)

        def build(seed):
            model = MLP(6, [12], 3, rng=np.random.default_rng(seed))
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
            return pre, Trainer(model, optim.SGD(model.parameters(), lr=0.1), self.forward_loss, preconditioner=pre)

        pre, trainer = build(3)
        trainer.train_step((x[:32], y[:32]))
        fresh_pre, fresh_trainer = build(5)
        weights = fresh_trainer.model.state_dict()
        for owner, target, state in (("KFAC", fresh_pre, pre.state_dict()), ("Trainer", fresh_trainer, trainer.state_dict())):
            state.pop("format", None)  # as every version before the number wrote it: format 0
            if found is not None:
                state["format"] = found
            with pytest.raises(ValueError, match=rf"^{owner} checkpoint is in format {found or 0}, but this version reads only format 5"):
                target.load_state_dict(state)
        # The number is checked before anything is read.
        assert fresh_pre.steps == 0 and fresh_trainer.iterations == 0
        for name, value in fresh_trainer.model.state_dict().items():
            np.testing.assert_array_equal(value, weights[name])
        assert pre.state_dict()["format"] == trainer.state_dict()["format"] == CHECKPOINT_FORMAT == 5

    def test_a_format_3_eigen_checkpoint_is_refused_by_its_number(self):
        """Format 3 kept a layer's eigen decompositions under ``"layers"``; format 4 keeps them with the layer's
        solve strategy, under ``"solvers"``.  A format-3 dict is refused by its number before anything is read."""
        x, y = make_problem(4)
        config = KFACConfig(factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")
        pre = KFAC(MLP(6, [12], 3, rng=np.random.default_rng(3)), config)
        nn.CrossEntropyLoss()(pre.model(Tensor(x[:32])), y[:32]).backward()
        pre.step()
        state = pre.state_dict()
        assert set(state["solvers"]["layers.0"]) == {"eigen_a", "eigen_g", "inverse_outer"}
        assert not {"eigen_a", "eigen_g", "inverse_outer"} & set(state["layers"]["layers.0"])
        # The same state in the format-3 layout.
        for name, solver_state in state["solvers"].items():
            state["layers"][name].update(solver_state)
            state["solvers"][name] = {}
        state["format"] = 3
        fresh = KFAC(MLP(6, [12], 3, rng=np.random.default_rng(5)), config)
        with pytest.raises(ValueError, match=r"^KFAC checkpoint is in format 3, but this version reads only format 5"):
            fresh.load_state_dict(state)
        assert fresh.steps == 0 and fresh.memory_usage()["total"] == 0

    def test_a_format_4_inverse_checkpoint_is_refused_by_its_number(self):
        """Format 4 kept each damped inverse as its symmetric square; format 5 keeps its packed triangle, whichever
        inverse shares its buffer.  A format-4 dict is refused by its number before anything is read."""
        x, y = make_problem(4)
        pre = KFAC(MLP(6, [12], 3, rng=np.random.default_rng(3)), factor_update_freq=1, inv_update_freq=1)
        nn.CrossEntropyLoss()(pre.model(Tensor(x[:32])), y[:32]).backward()
        pre.step()
        state = pre.state_dict()
        layer = pre.layers["layers.0"]
        assert state["solvers"]["layers.0"]["inv_a"].shape == layer.a_repr.packed_shape  # the triangle, not a square
        # The same state in the format-4 layout.
        for solver_state in state["solvers"].values():
            for key, packed in solver_state.items():
                solver_state[key] = expand_symmetric(packed)
        state["format"] = 4
        fresh = KFAC(MLP(6, [12], 3, rng=np.random.default_rng(5)), factor_update_freq=1, inv_update_freq=1)
        with pytest.raises(ValueError, match=r"^KFAC checkpoint is in format 4, but this version reads only format 5"):
            fresh.load_state_dict(state)
        assert fresh.steps == 0 and fresh.memory_usage()["total"] == 0

    @pytest.mark.parametrize("world, frac", [(1, 1.0), (2, 0.5), (2, 1.0)])
    def test_a_format_5_round_trip_restores_the_triangles_bitwise_and_resumes_bit_identically(self, world, frac):
        """The packed inverses a rank checkpoints are installed back into its triangles bit for bit, and the
        resumed run's next steps give the parameters of the run that never stopped."""
        x, y = make_problem(21, in_dim=6)
        config = KFACConfig(grad_worker_frac=frac, factor_update_freq=1, inv_update_freq=3, lr=0.05)

        def build(comm):
            model = MLP(6, [16, 16, 9], 3, rng=np.random.default_rng(2))  # A 7 / 17 / 17 / 10, G 16 / 16 / 9 / 3
            pre = KFAC.from_config(model, config, comm=comm)
            return pre, optim.SGD(model.parameters(), lr=0.05, momentum=0.9)

        def step(pre, opt, index, comm):
            local = np.arange(32 * index, 32 * index + 32)[comm.rank :: comm.world_size] % len(x)
            opt.zero_grad()
            nn.CrossEntropyLoss()(pre.model(Tensor(x[local])), y[local]).backward()
            DistributedDataParallel(pre.model, comm).sync_gradients(1.0 / comm.world_size)
            pre.step()
            opt.step()

        def program(comm):
            pre, opt = build(comm)
            for index in range(4):
                step(pre, opt, index, comm)
            state, weights, moments = pre.state_dict(), pre.model.state_dict(), opt.state_dict()
            for index in range(4, 7):
                step(pre, opt, index, comm)
            straight = np.concatenate([p.data.ravel() for p in pre.model.parameters()])
            resumed, resumed_opt = build(comm)
            resumed.load_state_dict(state)
            resumed.model.load_state_dict(weights)
            resumed_opt.load_state_dict(moments)
            restored = resumed.state_dict()["solvers"]
            for name, solver_state in state["solvers"].items():
                for key, packed in solver_state.items():
                    if packed is not None:
                        assert restored[name][key].tobytes() == packed.tobytes(), (name, key)
            for index in range(4, 7):
                step(resumed, resumed_opt, index, comm)
            return straight, np.concatenate([p.data.ravel() for p in resumed.model.parameters()])

        for straight, resumed in run_spmd(world, program):
            assert straight.tobytes() == resumed.tobytes()

    def test_a_factor_the_plan_does_not_place_on_the_rank_raises(self):
        """MEM-OPT at world 2 places each factor on one rank; a checkpoint carrying another rank's factor was
        written under another config or version and raises, naming the layer, the factor and the rank."""
        x, y = make_problem(11)
        config = KFACConfig.mem_opt(2, factor_update_freq=1, inv_update_freq=2)

        def build(comm):
            return KFAC.from_config(MLP(6, [16], 3, rng=np.random.default_rng(1)), config, comm=comm)

        def train(comm):
            pre = build(comm)
            assert pre.plan.scheme == "MEM-OPT"
            local = np.arange(32)[comm.rank :: 2]
            nn.CrossEntropyLoss()(pre.model(Tensor(x[local])), y[local]).backward()
            pre.step()
            return pre.state_dict()

        states = run_spmd(2, train)
        name, which = next(
            (name, which) for name in states[0]["layers"] for which in ("a", "g")
            if states[0]["layers"][name][f"factor_{which}"] is None
        )  # fmt: skip
        states[0]["layers"][name][f"factor_{which}"] = states[1]["layers"][name][f"factor_{which}"].copy()

        def restore(comm):
            try:
                build(comm).load_state_dict(states[comm.rank])
            except ValueError as error:
                return str(error)

        refused, restored = run_spmd(2, restore)
        assert restored is None
        assert f"has {which.upper()} factor for layer {name!r}, which rank 0 does not hold" in refused

    @pytest.mark.parametrize("key", ["eigen_a", "eigen_g", "inverse_outer"])
    def test_eigen_state_the_plan_does_not_place_on_the_rank_raises(self, key):
        """MEM-OPT at world 2 keeps each layer's eigen state on its one gradient worker; a checkpoint giving rank 0
        the eigen state (or cached outer product) of a layer rank 1 holds is refused as solver state of a layer
        rank 0 is no gradient worker of, naming the layer and the rank."""
        x, y = make_problem(12)
        config = KFACConfig.mem_opt(2, factor_update_freq=1, inv_update_freq=1, solve_strategy="eigen")

        def build(comm):
            return KFAC.from_config(MLP(6, [16], 3, rng=np.random.default_rng(1)), config, comm=comm)

        def train(comm):
            pre = build(comm)
            local = np.arange(32)[comm.rank :: 2]
            nn.CrossEntropyLoss()(pre.model(Tensor(x[local])), y[local]).backward()
            pre.step()
            return pre.state_dict(), {name: group.grad_workers for name, group in pre.groups.items()}

        (states, holders), (other, _) = run_spmd(2, train)
        name = next(name for name, ranks in holders.items() if ranks == (1,))
        assert states["solvers"][name][key] is None and other["solvers"][name][key] is not None
        states["solvers"][name][key] = other["solvers"][name][key]

        def restore(comm):
            try:
                build(comm).load_state_dict(states if comm.rank == 0 else other)
            except ValueError as error:
                return str(error)

        refused, restored = run_spmd(2, restore)
        assert restored is None
        assert f"has solver state ({key}) for layer {name!r}, of which rank 0 is not a gradient worker" in refused

    @pytest.mark.parametrize("case", ["wrong-shape", "another-ranks-layer", "float64"])
    def test_inverse_state_is_checked_against_its_repr_and_rank_and_installed_in_the_inverse_dtype(self, case):
        """MEM-OPT at world 2 under the default ``inverse`` path: a checkpoint inverse of the wrong shape (a
        square: format 5 keeps triangles), or of a layer whose gradient workers exclude the rank, raises at load
        naming the layer (and the factor); a right one in another dtype is installed in the inverse dtype, with
        the same values."""
        x, y = make_problem(13, in_dim=5)
        config = KFACConfig.mem_opt(2, factor_update_freq=1, inv_update_freq=10)

        def build(comm):
            return KFAC.from_config(MLP(5, [16], 3, rng=np.random.default_rng(1)), config, comm=comm)

        def train(comm):
            pre = build(comm)
            local = np.arange(32)[comm.rank :: 2]
            nn.CrossEntropyLoss()(pre.model(Tensor(x[local])), y[local]).backward()
            pre.step()
            return pre.state_dict(), {name: group.grad_workers for name, group in pre.groups.items()}

        (state, workers), (other, _) = run_spmd(2, train)
        mine = next(name for name, ranks in workers.items() if ranks == (0,))
        theirs = next(name for name, ranks in workers.items() if ranks == (1,))
        original = state["solvers"][mine]["inv_a"]
        n = triangle_dim(original.size)
        assert original.dtype == np.float32 and original.ndim == 1
        if case == "wrong-shape":
            state["solvers"][mine]["inv_a"] = expand_symmetric(original).astype(np.float64)
            expected = (
                rf"layer {mine!r}: checkpoint inverse of the A factor is a float64 array of shape \({n}, {n}\), "
                rf"expected floats of shape \({original.size},\)"
            )
        elif case == "another-ranks-layer":
            state["solvers"][theirs] = other["solvers"][theirs]
            expected = rf"solver state \(inv_a, inv_g\) for layer {theirs!r}, of which rank 0 is not a gradient worker"
        else:
            state["solvers"][mine]["inv_a"] = original.astype(np.float64)
            expected = None

        def restore(comm):
            pre = build(comm)
            try:
                pre.load_state_dict(state if comm.rank == 0 else other)
            except ValueError as error:
                return str(error)
            return pre.solvers[mine].inv_a if comm.rank == 0 else None

        loaded, _ = run_spmd(2, restore)
        if expected is None:
            assert isinstance(loaded, TriangleView) and loaded.dtype == np.float32
            assert loaded.packed().tobytes() == original.tobytes()
        else:
            assert re.search(expected, loaded), loaded

    @pytest.mark.parametrize("world", [1, 2])
    def test_a_restore_never_changes_the_plan(self, world):
        """After every restore -- drift off, drift on, and drift off with a stray ``"scheduler"`` whose phases
        are not the plan's -- the plan is still the one the config builds for the world."""
        x, y = make_problem(6)
        base = KFACConfig.mem_opt(world, lr=0.1, factor_update_freq=5, inv_update_freq=10)

        def build(comm, config):
            return KFAC.from_config(MLP(6, [12], 3, rng=np.random.default_rng(3)), config, comm=comm)

        def program(comm):
            digests = []
            for config in (base, base.replace(drift_tol=0.05, max_staleness=20)):
                pre = build(comm, config)
                assert any(pre.plan.refresh_offsets.values())
                for step in range(7):
                    local = np.random.default_rng(step).integers(0, len(x), 32)[comm.rank :: world]
                    pre.model.zero_grad()
                    nn.CrossEntropyLoss()(pre.model(Tensor(x[local])), y[local]).backward()
                    pre.step()
                state = pre.state_dict()
                checkpoints = [state]
                if config.drift_tol == 0:
                    assert "scheduler" not in state
                    entry = dict(factor_interval=5, eigen_interval=10, next_factor_step=10, next_eigen_step=10,
                                 snapshot_a=None, snapshot_g=None, last_drift=None, last_eigen_step=0)  # fmt: skip
                    checkpoints.append(dict(state, scheduler={"layers": {name: dict(entry) for name in pre.layers}}))
                for checkpoint in checkpoints:
                    restored = build(comm, config)
                    restored.load_state_dict(checkpoint)
                    shapes = [layer.shape_info() for layer in restored.layers.values()]
                    built = restored.config.distribution_plan(shapes, restored.world_size).digest()
                    digests.append((restored.plan.digest(), built, pre.plan.digest()))
            return digests

        for digests in run_spmd(world, program):
            assert len(digests) == 3
            for ours, built, original in digests:
                assert ours == built == original


class TestLayerRegistry:
    """``LAYER_HANDLERS`` is the one fixed table of what K-FAC preconditions, and the shape models read it."""

    def test_builtin_registrations(self):
        assert dict(LAYER_HANDLERS) == {
            nn.Linear: KFACLinearLayer,
            nn.Conv2d: KFACConv2dLayer,
            nn.Embedding: KFACEmbeddingLayer,
            nn.LayerNorm: KFACLayerNormLayer,
            nn.BatchNorm2d: KFACBatchNorm2dLayer,
        }
        with pytest.raises(TypeError):
            LAYER_HANDLERS[nn.Linear] = KFACEmbeddingLayer  # fixed: no run-time registration
        bn = nn.BatchNorm2d(4, affine=False)
        assert make_kfac_layer("bn", bn, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0) is None

    def test_resolve_walks_mro(self):
        class MyLinear(nn.Linear):
            pass

        module = MyLinear(3, 2, rng=np.random.default_rng(0))
        handler = make_kfac_layer("mine", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        assert type(handler) is KFACLinearLayer
        handler.remove()

    @pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDERS))
    def test_shape_models_read_the_table(self, name):
        """``collect_layer_shapes`` is ``KFAC``'s layer shapes; without structured layers, the dense/dense ones."""
        workload = build_workload(name)
        skip = workload.kfac_skip_modules
        pre = KFAC(workload.model, skip_modules=skip)
        engine = [layer.shape_info() for layer in pre.layers.values()]
        pre.remove()
        assert collect_layer_shapes(workload.model, skip_modules=skip, include_structured=True) == engine
        dense = [shape for shape in engine if shape.a_repr.num_blocks == shape.g_repr.num_blocks == 1]
        assert collect_layer_shapes(workload.model, skip_modules=skip) == dense


class TestEmbeddingLayer:
    def make_handler(self, vocab=11, dim=4):
        module = nn.Embedding(vocab, dim, rng=np.random.default_rng(0))
        handler = make_kfac_layer("emb", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        return module, handler

    def test_dims(self):
        _, handler = self.make_handler(11, 4)
        assert isinstance(handler, KFACEmbeddingLayer)
        assert handler.a_dim == 11 and handler.g_dim == 4

    def test_a_factor_is_token_frequency_diagonal(self):
        module, handler = self.make_handler(7, 3)
        ids = np.array([[0, 2, 2], [5, 0, 2]])
        module(ids).sum().backward()
        a_new, g_new = handler.compute_batch_factors()
        counts = np.bincount(ids.ravel(), minlength=7).astype(np.float64)
        # A is exactly diagonal, so the handler stores the packed vector.
        assert a_new.shape == (7,)
        assert handler.a_repr == FactorRepr.diagonal(7)
        np.testing.assert_allclose(a_new, counts / ids.size, rtol=1e-6)
        assert g_new.shape == (6,)  # dense: the triangle of the 3x3

    def test_gradient_round_trip(self):
        module, handler = self.make_handler(6, 3)
        ids = np.array([[1, 4], [2, 1]])
        (module(ids) ** 2).sum().backward()
        grad = handler.get_gradient().copy()  # a view of weight.grad, which set_gradient writes in place
        assert grad.shape == (3, 6)  # (g_dim, a_dim) convention
        np.testing.assert_allclose(grad.T, module.weight.grad, rtol=1e-6)
        handler.set_gradient(grad * 0.5)
        np.testing.assert_allclose(module.weight.grad, grad.T * 0.5, rtol=1e-6)

    def test_oversized_vocab_is_preconditioned_diagonally(self):
        """Big tables get an O(V) diagonal A factor instead of being skipped.

        The old vocab-size guard existed to avoid allocating a dense vocab²
        factor; with the diagonal representation the factor is a vector, so
        even huge embedding tables are preconditioned.
        """
        vocab = 32768
        big = nn.Embedding(vocab, 4, rng=np.random.default_rng(0))
        handler = make_kfac_layer("big", big, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        assert isinstance(handler, KFACEmbeddingLayer)
        assert handler.a_repr == FactorRepr.diagonal(vocab)

        class WithBigEmbedding(nn.Module):
            def __init__(self):
                super().__init__()
                self.embedding = big
                self.head = nn.Linear(4, 2, rng=np.random.default_rng(1))

            def forward(self, ids):
                return self.head(self.embedding(ids).mean(axis=1))

        pre = KFAC(WithBigEmbedding(), factor_update_freq=1, inv_update_freq=1)
        assert any(isinstance(l, KFACEmbeddingLayer) for l in pre.layers.values())
        ids = np.random.default_rng(2).integers(0, vocab, (8, 5))
        labels = np.random.default_rng(3).integers(0, 2, 8)
        model = pre.model
        loss = nn.CrossEntropyLoss()(model(ids), labels)
        loss.backward()
        pre.step()
        # Factor memory for the table is O(V), not O(V²).
        emb_layer = next(l for l in pre.layers.values() if isinstance(l, KFACEmbeddingLayer))
        assert emb_layer.factor_a.shape == (vocab,)
        assert np.all(np.isfinite(model.embedding.weight.grad))

    def test_full_preconditioned_step_on_embedding_model(self):
        """Embedding preconditioning end-to-end: the new-workload proof."""

        class TinyClassifier(nn.Module):
            def __init__(self):
                super().__init__()
                self.embedding = nn.Embedding(9, 6, rng=np.random.default_rng(0))
                self.head = nn.Linear(6, 4, rng=np.random.default_rng(1))

            def forward(self, ids):
                return self.head(self.embedding(ids).mean(axis=1))

        model = TinyClassifier()
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        assert sum(isinstance(l, KFACEmbeddingLayer) for l in pre.layers.values()) == 1
        ids = np.random.default_rng(2).integers(0, 9, (32, 5))
        labels = np.random.default_rng(3).integers(0, 4, 32)
        loss = nn.CrossEntropyLoss()(model(ids), labels)
        loss.backward()
        before = model.embedding.weight.grad.copy()
        pre.step()
        after = model.embedding.weight.grad
        assert not np.allclose(before, after)
        assert np.all(np.isfinite(after))
        # Preconditioning must keep a descent direction.
        assert float(np.sum(before * after)) > 0
