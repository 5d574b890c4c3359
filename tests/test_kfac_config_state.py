"""Tests for the modular preconditioner framework.

Covers the redesigned public API: `KFACConfig` validation and serialization,
the `Preconditioner` protocol (checkpoint/resume round-trips, bit-identical
under every distribution strategy on the threaded multi-worker backend), and
the open layer registry (Embedding as the built-in extension plus a custom
registered type).
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import DistributedDataParallel, run_spmd
from repro.kfac import (
    KFAC,
    KFACConfig,
    KFACEmbeddingLayer,
    KFACLinearLayer,
    Preconditioner,
    make_kfac_layer,
    pack_eigen,
    register_kfac_layer,
    registered_kfac_layers,
    resolve_kfac_layer,
    unpack_eigen_repr,
)
from repro.kfac.kmath import EigenDecomposition
from repro.kfac.layers import _LAYER_REGISTRY
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
            dict(max_staleness=50),  # positive, but below inv_update_freq=100
            dict(factor_decay=0.0),
            dict(factor_decay=1.5),
            dict(damping=0.0),
            dict(kl_clip=0.0),
            dict(grad_worker_frac=0.0),
            dict(grad_worker_frac=1.5),
            dict(precision="fp8"),
            dict(assignment_balance="latency"),
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            KFACConfig(**kwargs)

    def test_dict_round_trip(self):
        config = KFACConfig(lr=0.05, damping=0.01, factor_update_freq=2, inv_update_freq=6, precision="fp16")
        data = config.to_dict()
        assert data["damping"] == 0.01
        assert KFACConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            KFACConfig.from_dict({"lr": 0.1, "momentum": 0.9})

    def test_from_dict_drops_exactly_the_retired_keys(self):
        """Old checkpoints/manifests carry the two path-selection keys; they
        no longer change behaviour, so they load — any other stray key raises."""
        data = KFACConfig(damping=0.01).to_dict()
        assert "comm_overlap" not in data and "adaptive_schedule" not in data
        for overlap, adaptive in ((True, False), (False, True)):
            restored = KFACConfig.from_dict(dict(data, comm_overlap=overlap, adaptive_schedule=adaptive))
            assert restored == KFACConfig(damping=0.01)
        with pytest.raises(ValueError, match="unknown"):
            KFACConfig.from_dict(dict(data, comm_overlap=True, hook_pipeline=True))

    def test_from_dict_loads_the_retired_reference_backend_onto_the_one_backend(self):
        """Checkpoints and manifests carry ``kernel_backend``: ``"reference"`` (the old
        default, whose kernels are the test oracle now) before the backends were
        collapsed, ``"batched"`` (the one backend) after.  The field is gone: both
        names load onto the one backend -- and only they."""
        for stored in ("reference", "batched"):
            parent_format = dict(KFACConfig(damping=0.01).to_dict(), kernel_backend=stored)
            restored = KFACConfig.from_dict(parent_format)
            assert restored == KFACConfig(damping=0.01) and "kernel_backend" not in restored.to_dict()
            # With the two keys PR 15 retired, as a parent-era manifest really looks.
            assert KFACConfig.from_dict(dict(parent_format, comm_overlap=False, adaptive_schedule=False)) == restored
        for unknown in ("cuda", "Reference2", ""):
            with pytest.raises(ValueError, match="kernel_backend"):
                KFACConfig.from_dict(dict(parent_format, kernel_backend=unknown))
        with pytest.raises(TypeError, match="kernel_backend"):
            KFACConfig(kernel_backend="batched")

    def test_the_config_has_twenty_fields(self):
        """Every field is a hyperparameter that changes a result, a byte or a time; none selects a registry member."""
        import dataclasses

        assert len(dataclasses.fields(KFACConfig)) == 20

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
            bucket_cap_mb="auto",
        )  # fmt: skip

        def program(comm):
            pre = KFAC.from_config(self.model(), config, comm=comm)
            shapes = [layer.shape_info() for layer in pre.layers.values()]
            return pre.plan.digest(), config.distribution_plan(shapes, comm.world_size).digest()

        digests = run_spmd(4, program)
        assert all(ours == built == digests[0][0] for ours, built in digests)
        assert KFAC(self.model(), **config.to_dict()).plan.digest() != digests[0][0]  # world 1 places it apart

    def test_kfac_keeps_only_lr_and_damping_beside_its_config(self):
        """``factor_decay``, ``kl_clip``, ``compute_eigen_outer`` and ``damping_pi_correction`` are read from
        the config, so no second copy can drift from it; ``lr`` and ``damping`` change during a run."""
        config = KFACConfig(
            lr=0.2, damping=0.01, factor_decay=0.5, kl_clip=0.01, compute_eigen_outer=False,
            damping_pi_correction=True,
        )  # fmt: skip
        pre = KFAC(self.model(), config)
        for name in ("factor_decay", "kl_clip", "compute_eigen_outer", "damping_pi_correction"):
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
            (FactorRepr.block_diagonal(6, 2), rng.standard_normal((3, 2, 2)), 6 + 3 * 4),
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
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, precision="fp64")
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.step()
        for layer in pre.layers.values():
            for eigen, factor in ((layer.eigen_a, layer.factor_a), (layer.eigen_g, layer.factor_g)):
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
    def test_kfac_implements_preconditioner_protocol(self):
        model = MLP(4, [8], 2, rng=np.random.default_rng(0))
        assert isinstance(KFAC(model), Preconditioner)

    def test_state_dict_round_trip_single_process_bitwise(self):
        """Checkpoint -> restore -> next step must reproduce the gradients exactly."""
        x, y = make_problem(1)
        config = KFACConfig(lr=0.1, factor_update_freq=2, inv_update_freq=4)

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
        config = KFACConfig(lr=0.1, factor_update_freq=1, inv_update_freq=4)
        model_a = MLP(33, [40], 3, rng=np.random.default_rng(3))
        pre_a = KFAC.from_config(model_a, config)
        opt_a = optim.SGD(model_a.parameters(), lr=0.1)
        train_steps(model_a, pre_a, opt_a, x, y, steps=2)  # the next step reuses step 0's decompositions
        checkpoint, model_state = pre_a.state_dict(), model_a.state_dict()
        stored = checkpoint["layers"]["layers.0"]["eigen_a"]["eigenvectors"]
        assert stored.flags.f_contiguous and not np.shares_memory(stored, pre_a.layers["layers.0"].eigen_a.eigenvectors)

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
        """A checkpoint from before the refresh plan was saved (steps, config with
        the two retired keys, layers — nothing else) resumed mid-interval must
        refresh when the uninterrupted run does -- on the distribution plan's
        offsets, before, between and after two staggered steps -- bit for bit."""
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
        old_format = {
            "steps": state["steps"],
            "config": dict(state["config"], comm_overlap=False, adaptive_schedule=False),
            "layers": state["layers"],
        }
        model_b = MLP(6, [12], 3, rng=np.random.default_rng(77))
        model_b.load_state_dict(model_a.state_dict())
        pre_b = KFAC(model_b, KFACConfig.from_dict(old_format["config"]))
        pre_b.load_state_dict(old_format)
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

    def test_checkpoint_written_on_one_refresh_step_resumes_on_the_phase_it_stored(self):
        """A checkpoint from before the plan staggered the refresh (every stored ``next_eigen_step``
        equal) stays on that phase under a plan that would stagger, bit for bit, and counts no skip."""
        import dataclasses

        x, y = make_problem(6)
        config = KFACConfig(lr=0.1, factor_update_freq=5, inv_update_freq=10)

        def build(seed):
            model = MLP(6, [12], 3, rng=np.random.default_rng(seed))
            return model, KFAC(model, config)

        model_a, pre_a = build(3)
        # The schedule before the plan had offsets: one refresh step.
        pre_a.plan = dataclasses.replace(pre_a.plan, refresh_offsets={name: 0 for name in pre_a.layers})
        train_steps(model_a, pre_a, optim.SGD(model_a.parameters(), lr=0.1), x, y, steps=7)
        entry = {"next_factor_step": 10, "factor_interval": 5, "next_eigen_step": 10, "eigen_interval": 10,
                 "snapshot_a": None, "snapshot_g": None, "last_drift": None, "last_factor_step": 5, "last_eigen_step": 0}
        # Such a checkpoint carries every layer's schedule, as that version's scheduler wrote it after step 6.
        state = dict(pre_a.state_dict(), scheduler={
            "factor_update_freq": 5, "inv_update_freq": 10, "drift_tol": 0.0, "max_staleness": 0,
            "layers": {name: dict(entry) for name in pre_a.layers},
        })  # fmt: skip
        model_b, pre_b = build(77)
        assert sorted(pre_b.plan.refresh_offsets.values()) == [1, 6]
        model_b.load_state_dict(model_a.state_dict())
        pre_b.load_state_dict(state)
        assert pre_b.plan.refresh_offsets == pre_a.plan.refresh_offsets
        batch_rng = np.random.default_rng(9)
        for step in range(7, 23):
            batch = batch_rng.integers(0, len(x), 32)
            assert pre_b.actions().refresh == (tuple(pre_b.layers) if step % 10 == 0 else ())
            grads = []
            for model, pre in ((model_a, pre_a), (model_b, pre_b)):
                model.zero_grad()
                nn.CrossEntropyLoss()(model(Tensor(x[batch])), y[batch]).backward()
                pre.step()
                grads.append(np.concatenate([p.grad.ravel() for p in model.parameters()]))
            np.testing.assert_array_equal(*grads)
        assert event_total(pre_b, "eigen_skips") == 0

    def test_parent_format_state_dict_with_reference_backend_resumes_bitwise(self):
        """A full ``KFAC.state_dict()`` whose config names the retired ``reference``
        backend round-trips: the config loads, the state restores, the next
        steps match the uninterrupted run bit for bit."""
        x, y = make_problem(8)
        config = KFACConfig(lr=0.1, factor_update_freq=2, inv_update_freq=4)
        model_a = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre_a = KFAC(model_a, config)
        train_steps(model_a, pre_a, optim.SGD(model_a.parameters(), lr=0.1), x, y, steps=5)
        checkpoint = pre_a.state_dict()
        assert "kernel_backend" not in checkpoint["config"] and "scheduler" not in checkpoint
        checkpoint["config"] = dict(checkpoint["config"], kernel_backend="reference")  # as the parent wrote it

        model_b = MLP(6, [12], 3, rng=np.random.default_rng(77))
        model_b.load_state_dict(model_a.state_dict())
        pre_b = KFAC(model_b, KFACConfig.from_dict(checkpoint["config"]))
        pre_b.load_state_dict(checkpoint)
        assert pre_b.config == config and pre_b.kernel_backend == "batched"
        assert pre_b.state_dict()["config"] == pre_a.state_dict()["config"]

        batch_rng = np.random.default_rng(9)
        for _ in range(4):
            batch = batch_rng.integers(0, len(x), 32)
            grads = []
            for model, pre in ((model_a, pre_a), (model_b, pre_b)):
                model.zero_grad()
                nn.CrossEntropyLoss()(model(Tensor(x[batch])), y[batch]).backward()
                pre.step()
                grads.append(np.concatenate([p.grad.ravel() for p in model.parameters()]))
            np.testing.assert_array_equal(*grads)

    def test_parent_format_checkpoint_with_event_counters_resumes_bitwise(self):
        """Checkpoints of earlier versions carry the scheduler's and the damping controller's event
        counters (and ``dense_factors`` in the config); they load as plan state and resume bit for bit,
        with drift tracking and adaptive damping moving the plan."""
        x, y = make_problem(8)
        config = KFACConfig(
            lr=0.1, factor_update_freq=1, inv_update_freq=2, drift_tol=0.05, max_staleness=8, adaptive_damping=True
        )
        loss_fn = nn.CrossEntropyLoss()

        def step(model, pre, batch):
            model.zero_grad()
            loss = loss_fn(model(Tensor(x[batch])), y[batch])
            loss.backward()
            pre.step(loss=float(loss.item()))
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        batch_rng = np.random.default_rng(9)
        model_a = MLP(6, [12], 3, rng=np.random.default_rng(3))
        pre_a = KFAC(model_a, config)
        for _ in range(6):
            step(model_a, pre_a, batch_rng.integers(0, len(x), 32))
        checkpoint = pre_a.state_dict()
        counters = ("factor_updates", "eigen_updates", "factor_skips", "eigen_skips", "drift_triggers",
                    "factor_windows_rejected")
        assert not set(counters) & set(next(iter(checkpoint["scheduler"]["layers"].values())))
        assert set(checkpoint["damping_controller"]) == {"damping", "last_rho", "pending"}
        parent = {
            **checkpoint,
            "config": dict(checkpoint["config"], dense_factors=False),
            "scheduler": {**checkpoint["scheduler"], "layers": {
                name: {**entry, **{key: 3 for key in counters}} for name, entry in checkpoint["scheduler"]["layers"].items()
            }},
            "damping_controller": {**checkpoint["damping_controller"], "shrinks": 4, "grows": 2},
        }

        model_b = MLP(6, [12], 3, rng=np.random.default_rng(77))
        model_b.load_state_dict(model_a.state_dict())
        pre_b = KFAC(model_b, KFACConfig.from_dict(parent["config"]))
        pre_b.load_state_dict(parent)
        assert pre_b.config == config
        assert pre_b.state_dict()["scheduler"]["layers"].keys() == checkpoint["scheduler"]["layers"].keys()
        for _ in range(6):
            batch = batch_rng.integers(0, len(x), 32)
            np.testing.assert_array_equal(step(model_a, pre_a, batch), step(model_b, pre_b, batch))
        assert pre_b.damping == pre_a.damping
        assert pre_b.actions() == pre_a.actions()

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
        np.testing.assert_array_equal(restored._a_accum, layer_state["a_accum"])

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

    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_distributed_resume_bitwise_all_strategies(self, grad_worker_frac):
        """Acceptance criterion: state_dict() -> load_state_dict() reproduces
        identical preconditioned gradients on the next step() for MEM-OPT,
        HYBRID-OPT and COMM-OPT under the threaded multi-worker communicator."""
        x_global, y_global = make_problem(11, samples=256, in_dim=6, classes=3)
        config = KFACConfig(
            lr=0.05, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=grad_worker_frac
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

    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_replicated_layout_checkpoint_resumes_to_the_same_bits(self, grad_worker_frac):
        """A checkpoint in the layout every earlier version wrote (every factor on every rank)
        resumes exactly like this tree's own: factors a rank does not hold are dropped on load."""
        x_global, y_global = make_problem(11, samples=256, in_dim=6, classes=3)
        config = KFACConfig(lr=0.05, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=grad_worker_frac)
        loss_fn = nn.CrossEntropyLoss()

        def one_step(ddp, model, pre, seed):
            local = np.random.default_rng(seed).integers(0, len(x_global), 32)[pre.rank :: pre.world_size]
            model.zero_grad()
            loss_fn(model(Tensor(x_global[local])), y_global[local]).backward()
            ddp.sync_gradients()
            pre.step()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        def train(comm):
            model = MLP(6, [16], 3, rng=np.random.default_rng(1))
            ddp = DistributedDataParallel(model, comm)
            pre = KFAC.from_config(model, config, comm=comm)
            for step in range(5):  # stops mid-interval: the next factor update is at step 6
                one_step(ddp, model, pre, seed=step)
            return pre.state_dict(), model.state_dict()

        trained = run_spmd(4, train)
        own = [state for state, _ in trained]
        replicated = [
            {**state, "layers": {name: dict(entry) for name, entry in state["layers"].items()}} for state in own
        ]
        for name in own[0]["layers"]:
            for key in ("factor_a", "factor_g"):
                (holder,) = [state["layers"][name][key] for state in own if state["layers"][name][key] is not None]
                for state in replicated:
                    state["layers"][name][key] = holder.copy()

        def resume(checkpoints):
            def program(comm):
                model = MLP(6, [16], 3, rng=np.random.default_rng(77))
                model.load_state_dict(trained[comm.rank][1])
                ddp = DistributedDataParallel(model, comm)
                pre = KFAC.from_config(model, config, comm=comm)
                pre.load_state_dict(checkpoints[comm.rank])
                grads = [one_step(ddp, model, pre, seed=100 + step) for step in range(4)]
                return grads, pre.memory_usage()["factors"]

            return run_spmd(4, program)

        from_own, from_replicated = resume(own), resume(replicated)
        for (grads_own, held_own), (grads_replicated, held_replicated) in zip(from_own, from_replicated):
            assert held_own == held_replicated
            for a, b in zip(grads_own, grads_replicated):
                np.testing.assert_array_equal(a, b)
        all_factors = sum(n * (n + 1) // 2 for n in (6 + 1, 16, 16 + 1, 3)) * 4  # each one stored once, as its triangle
        assert sum(held for _, held in from_replicated) == all_factors

    @pytest.mark.parametrize("world, grad_worker_frac", [(1, 1.0), (2, 0.5), (2, 1.0)], ids=["w1", "w2-mem", "w2-comm"])
    def test_square_layout_checkpoint_resumes_to_the_same_bits(self, world, grad_worker_frac):
        """A checkpoint laid out as the commit before packed storage wrote it -- dense factors and window
        accumulators as full squares, ``triangular_comm`` in the embedded config -- resumes bit for bit."""
        x_global, y_global = make_problem(11, samples=256, in_dim=6, classes=3)
        config = KFACConfig(lr=0.05, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=grad_worker_frac)
        loss_fn = nn.CrossEntropyLoss()

        def backward(model, pre, seed):
            local = np.random.default_rng(seed).integers(0, len(x_global), 32)[pre.rank :: pre.world_size]
            model.zero_grad()
            loss_fn(model(Tensor(x_global[local])), y_global[local]).backward()

        def finish_step(ddp, model, pre):
            ddp.sync_gradients()
            pre.step()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        def train(comm):
            model = MLP(6, [16], 3, rng=np.random.default_rng(1))
            ddp = DistributedDataParallel(model, comm)
            pre = KFAC.from_config(model, config, comm=comm)
            for step in range(6):
                backward(model, pre, seed=step)
                finish_step(ddp, model, pre)
            backward(model, pre, seed=6)  # killed inside step 6, a factor update: the window is in the accumulators
            state = pre.state_dict()
            assert all(entry["a_accum"] is not None for entry in state["layers"].values())
            squares = 0
            for name, entry in state["layers"].items():
                for which in ("a", "g"):
                    repr_ = pre.layers[name].factor_repr(which)
                    for key in (f"factor_{which}", f"{which}_accum"):
                        if entry[key] is not None and repr_.is_dense:
                            entry[key] = repr_.to_dense(entry[key])
                            squares += 1
            assert squares >= 4
            state["config"]["triangular_comm"] = False
            grads = [p.grad.copy() for p in model.parameters()]
            uninterrupted = [finish_step(ddp, model, pre)]
            for step in range(7, 10):
                backward(model, pre, seed=step)
                uninterrupted.append(finish_step(ddp, model, pre))
            return state, model.state_dict(), grads, uninterrupted

        trained = run_spmd(world, train)

        def resume(comm):
            state, weights, grads, uninterrupted = trained[comm.rank]
            model = MLP(6, [16], 3, rng=np.random.default_rng(77))
            model.load_state_dict(weights)
            for param, grad in zip(model.parameters(), grads):
                param.grad = grad.copy()
            ddp = DistributedDataParallel(model, comm)
            restored_config = KFACConfig.from_dict(state["config"])
            assert restored_config == config
            pre = KFAC.from_config(model, restored_config, comm=comm)
            pre.load_state_dict(state)
            for layer in pre.layers.values():  # everything is back in the one storage form
                for which in ("a", "g"):
                    held = getattr(layer, f"factor_{which}")
                    assert held is None or held.shape == layer.factor_repr(which).packed_shape
            resumed = [finish_step(ddp, model, pre)]
            for step in range(7, 10):
                backward(model, pre, seed=step)
                resumed.append(finish_step(ddp, model, pre))
            return resumed, uninterrupted

        for resumed, uninterrupted in run_spmd(world, resume):
            for a, b in zip(resumed, uninterrupted):
                np.testing.assert_array_equal(a, b)

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

        model = MLP(6, [12], 3, rng=np.random.default_rng(0))
        plain = Trainer(model, optim.SGD(model.parameters(), lr=0.1), forward_loss)
        plain.train_step((x[:32], y[:32]))
        state = plain.state_dict()

        model2 = MLP(6, [12], 3, rng=np.random.default_rng(1))
        with_pre = Trainer(
            model2,
            optim.SGD(model2.parameters(), lr=0.1),
            forward_loss,
            preconditioner=KFAC(model2, factor_update_freq=1, inv_update_freq=1),
        )
        with pytest.raises(ValueError, match="stale"):
            with_pre.load_state_dict(state)

    def test_trainer_rejects_duck_typed_preconditioner(self):
        model = MLP(6, [12], 3, rng=np.random.default_rng(0))

        class NotAPreconditioner:
            def step(self, lr=None):
                pass

        with pytest.raises(TypeError, match="Preconditioner"):
            Trainer(model, optim.SGD(model.parameters(), lr=0.1), lambda m, b: None, preconditioner=NotAPreconditioner())


class TestLayerRegistry:
    def test_builtin_registrations(self):
        registry = registered_kfac_layers()
        assert registry[nn.Linear] is KFACLinearLayer
        assert registry[nn.Embedding] is KFACEmbeddingLayer

    def test_resolve_walks_mro(self):
        class MyLinear(nn.Linear):
            pass

        module = MyLinear(3, 2, rng=np.random.default_rng(0))
        assert resolve_kfac_layer(module) is KFACLinearLayer

    def test_custom_layer_type_dispatch(self):
        """Registering a handler for a new module type makes KFAC precondition it."""

        class ScaledLinear(nn.Linear):
            """A Linear variant a downstream package might add."""

        class KFACScaledLinearLayer(KFACLinearLayer):
            pass

        try:
            register_kfac_layer(ScaledLinear)(KFACScaledLinearLayer)
            module = ScaledLinear(4, 3, rng=np.random.default_rng(0))
            handler = make_kfac_layer("scaled", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
            assert isinstance(handler, KFACScaledLinearLayer)

            pre = KFAC(module, factor_update_freq=1, inv_update_freq=1)
            assert any(isinstance(layer, KFACScaledLinearLayer) for layer in pre.layers.values())
            x = RNG.standard_normal((16, 4)).astype(np.float32)
            (module(Tensor(x)) ** 2).sum().backward()
            pre.step()  # full step through the custom handler
        finally:
            _LAYER_REGISTRY.pop(ScaledLinear, None)

    def test_register_rejects_non_handler(self):
        with pytest.raises(TypeError):
            register_kfac_layer(nn.Linear)(object)

    def test_register_requires_module_types(self):
        with pytest.raises(ValueError):
            register_kfac_layer()


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
        assert handler.a_repr.kind == "diagonal"
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
        assert handler.a_repr.kind == "diagonal" and handler.a_repr.dim == vocab

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
