"""Integration tests: data-parallel training and distributed K-FAC on the threaded backend.

These tests validate the paper's core correctness claim for the distribution
strategies (section 3.1): MEM-OPT, COMM-OPT and HYBRID-OPT are *algorithmically
identical* — only memory and communication differ — so every strategy must
produce exactly the same training trajectory, and all replicas must stay
synchronized.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import DistributedDataParallel, run_spmd
from repro.kfac import KFAC, eigenvalue_outer_product
from repro.kfac.kmath import TriangleView
from repro.models import MLP
from repro.tensor import Tensor
from repro.training import Trainer

from counters import comm_counts, event_total, layer_events

RNG = np.random.default_rng(17)
X_GLOBAL = RNG.standard_normal((256, 6)).astype(np.float32)
W_TRUE = RNG.standard_normal((6, 3)).astype(np.float32)
Y_GLOBAL = (X_GLOBAL @ W_TRUE).argmax(axis=1)


def data_parallel_program(world_size, steps=8, use_kfac=True, grad_worker_frac=1.0, kfac_kwargs=None, lr=0.05):
    """Build an SPMD training program over the shared synthetic dataset."""

    def program(comm):
        model = MLP(6, [16], 3, rng=np.random.default_rng(comm.rank + 1))
        ddp = DistributedDataParallel(model, comm)
        optimizer = optim.SGD(model.parameters(), lr=lr, momentum=0.9)
        preconditioner = None
        if use_kfac:
            kwargs = dict(lr=lr, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=grad_worker_frac, comm=comm)
            if kfac_kwargs:
                kwargs.update(kfac_kwargs)
            preconditioner = KFAC(model, **kwargs)
        loss_fn = nn.CrossEntropyLoss()
        batch_rng = np.random.default_rng(99)
        for _ in range(steps):
            indices = batch_rng.integers(0, len(X_GLOBAL), 32)
            local = indices[comm.rank :: comm.world_size]
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(X_GLOBAL[local])), Y_GLOBAL[local])
            loss.backward()
            ddp.sync_gradients()
            if preconditioner is not None:
                preconditioner.step()
            optimizer.step()
        return np.concatenate([p.data.ravel() for p in model.parameters()])

    return program


def final_params(world_size, **kwargs):
    return run_spmd(world_size, data_parallel_program(world_size, **kwargs))


class TestDataParallelBaseline:
    def test_initial_parameters_broadcast_from_rank0(self):
        def program(comm):
            model = MLP(4, [8], 2, rng=np.random.default_rng(comm.rank * 7))
            DistributedDataParallel(model, comm)
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        results = run_spmd(3, program)
        for result in results[1:]:
            np.testing.assert_allclose(results[0], result)

    def test_replicas_stay_identical_without_kfac(self):
        results = final_params(4, use_kfac=False)
        for result in results[1:]:
            np.testing.assert_array_equal(results[0], result)

    def test_gradient_allreduce_matches_large_batch(self):
        """Averaging gradients over ranks equals computing the gradient of the full batch."""
        indices = np.arange(32)

        def distributed(comm):
            model = MLP(6, [8], 3, rng=np.random.default_rng(3))
            ddp = DistributedDataParallel(model, comm)
            local = indices[comm.rank :: comm.world_size]
            loss = nn.CrossEntropyLoss()(model(Tensor(X_GLOBAL[local])), Y_GLOBAL[local])
            loss.backward()
            ddp.sync_gradients()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        distributed_grads = run_spmd(2, distributed)[0]
        reference_model = MLP(6, [8], 3, rng=np.random.default_rng(3))
        loss = nn.CrossEntropyLoss()(reference_model(Tensor(X_GLOBAL[indices])), Y_GLOBAL[indices])
        loss.backward()
        reference = np.concatenate([p.grad.ravel() for p in reference_model.parameters()])
        np.testing.assert_allclose(distributed_grads, reference, atol=2e-4)


SOLVERS = pytest.mark.parametrize("solver", ["inverse", "eigen"])


class TestDistributedKFAC:
    @SOLVERS
    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_replicas_identical_for_every_strategy(self, grad_worker_frac, solver):
        """The replicas of one scheme are bitwise identical."""
        results = final_params(4, grad_worker_frac=grad_worker_frac, kfac_kwargs={"solve_strategy": solver})
        for result in results[1:]:
            np.testing.assert_array_equal(results[0], result)

    @SOLVERS
    def test_all_strategies_produce_same_trajectory(self, solver):
        """MEM-OPT, HYBRID-OPT and COMM-OPT are the same algorithm (section 3.1).

        On the eigen path up to rounding: a group of one keeps the eigenbasis as
        ``syevd`` returns it, a broadcast re-lays it out row-major, and BLAS
        rounds by layout.  An inverse has one layout whatever the group (every
        holder expands the packed triangle), so there the schemes agree bitwise.
        """
        kwargs = {"kfac_kwargs": {"solve_strategy": solver}}
        mem_opt = final_params(4, grad_worker_frac=0.25, **kwargs)[0]
        hybrid = final_params(4, grad_worker_frac=0.5, **kwargs)[0]
        comm_opt = final_params(4, grad_worker_frac=1.0, **kwargs)[0]
        if solver == "inverse":
            np.testing.assert_array_equal(mem_opt, hybrid)
            np.testing.assert_array_equal(hybrid, comm_opt)
        np.testing.assert_allclose(mem_opt, hybrid, atol=1e-4)
        np.testing.assert_allclose(hybrid, comm_opt, atol=1e-4)

    def test_distributed_matches_single_process_run(self):
        """A 2-rank data-parallel KAISA run equals a single-process run on the full batch."""
        distributed = final_params(2, grad_worker_frac=1.0, steps=6)[0]

        model = MLP(6, [16], 3, rng=np.random.default_rng(1))
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        preconditioner = KFAC(model, lr=0.05, factor_update_freq=2, inv_update_freq=4)
        loss_fn = nn.CrossEntropyLoss()
        batch_rng = np.random.default_rng(99)
        for _ in range(6):
            indices = batch_rng.integers(0, len(X_GLOBAL), 32)
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(X_GLOBAL[indices])), Y_GLOBAL[indices])
            loss.backward()
            preconditioner.step()
            optimizer.step()
        single = np.concatenate([p.data.ravel() for p in model.parameters()])
        # Micro-batch splitting changes factor statistics slightly (per-shard
        # averages of aaᵀ), so allow a small tolerance rather than bitwise equality.
        np.testing.assert_allclose(distributed, single, rtol=0.05, atol=0.05)

    @pytest.mark.parametrize("solver, state", [("inverse", "solver"), ("eigen", "eigen")])
    def test_mem_opt_uses_less_eigen_memory_than_comm_opt(self, solver, state):
        def program_factory(frac):
            def program(comm):
                model = MLP(6, [16], 3, rng=np.random.default_rng(comm.rank))
                ddp = DistributedDataParallel(model, comm)
                optimizer = optim.SGD(model.parameters(), lr=0.05)
                pre = KFAC(
                    model, factor_update_freq=1, inv_update_freq=1, grad_worker_frac=frac, comm=comm, solve_strategy=solver
                )
                loss_fn = nn.CrossEntropyLoss()
                optimizer.zero_grad()
                loss_fn(model(Tensor(X_GLOBAL[:16])), Y_GLOBAL[:16]).backward()
                ddp.sync_gradients()
                pre.step()
                return pre.memory_usage()

            return program

        mem_opt_usage = run_spmd(4, program_factory(0.25))
        comm_opt_usage = run_spmd(4, program_factory(1.0))
        # The decompositions (eigen path) or installed inverses (inverse path) of a layer live on its gradient workers.
        total_mem_opt_eigen = sum(u[state] for u in mem_opt_usage)
        total_comm_opt_eigen = sum(u[state] for u in comm_opt_usage)
        assert 0 < total_mem_opt_eigen < total_comm_opt_eigen
        # The factor *windows* are allreduced; a running factor lives only where it is
        # decomposed, so under both strategies the ranks together hold every factor once.
        all_factors = sum(n * (n + 1) // 2 for n in (6 + 1, 16, 16 + 1, 3)) * 4  # each stored once, as its triangle
        assert sum(u["factors"] for u in mem_opt_usage) == all_factors
        assert sum(u["factors"] for u in comm_opt_usage) == all_factors
        # Two layers, four ranks: MEM-OPT leaves two ranks without any K-FAC state.
        assert sorted(u["total"] > 0 for u in mem_opt_usage) == [False, False, True, True]

    def test_communication_volume_mem_opt_higher_per_iteration(self):
        """MEM-OPT broadcasts preconditioned gradients every iteration; COMM-OPT does not."""

        def run_world(frac):
            def target(comm):
                model = MLP(6, [16], 3, rng=np.random.default_rng(comm.rank))
                ddp = DistributedDataParallel(model, comm)
                optimizer = optim.SGD(model.parameters(), lr=0.05)
                # Long eigen-update interval: the per-iteration communication is then
                # dominated by the preconditioned-gradient broadcasts (section 2.2.1),
                # which only MEM-OPT/HYBRID-OPT perform.
                pre = KFAC(model, factor_update_freq=1, inv_update_freq=8, grad_worker_frac=frac, comm=comm)
                loss_fn = nn.CrossEntropyLoss()
                for step in range(8):
                    optimizer.zero_grad()
                    loss_fn(model(Tensor(X_GLOBAL[:16])), Y_GLOBAL[:16]).backward()
                    ddp.sync_gradients()
                    pre.step()
                    optimizer.step()
                return comm_counts(comm.tracer)["broadcast"][1]

            return run_spmd(4, target)

        # Every rank receives more broadcast bytes under MEM-OPT.
        for mem_opt, comm_opt in zip(run_world(0.25), run_world(1.0)):
            assert mem_opt > comm_opt


class TestOneEigenStagePath:
    """Every eigen holder forms the cached outer product from its own eigenvalues; nothing ships it."""

    @pytest.mark.parametrize(
        "frac, knobs",
        [(0.25, {}), (0.5, {}), (1.0, {}), (0.5, {"adaptive_damping": True}),
         (0.5, {"precision": "fp16"}), (0.5, {"compute_eigen_outer": False})],
        ids=["mem", "hybrid", "comm", "hybrid-adaptive", "hybrid-fp16", "hybrid-no-outer"],
    )  # fmt: skip
    def test_each_holder_forms_the_outer_product_and_the_eigen_round_carries_decompositions_only(self, frac, knobs):
        def program(comm):
            model = MLP(6, [16, 8], 3, rng=np.random.default_rng(5))
            pre = KFAC(
                model, lr=0.05, factor_update_freq=1, inv_update_freq=2, grad_worker_frac=frac, comm=comm,
                solve_strategy="eigen", **knobs,
            )  # fmt: skip
            loss_fn = nn.CrossEntropyLoss()
            trainer = Trainer(
                model, optim.SGD(model.parameters(), lr=0.05, momentum=0.9),
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]), preconditioner=pre, comm=comm,
            )  # fmt: skip
            batch_rng, held = np.random.default_rng(99), 0
            for step in range(6):
                local = batch_rng.integers(0, len(X_GLOBAL), 32)[comm.rank :: comm.world_size]
                trainer.train_step((X_GLOBAL[local], Y_GLOBAL[local]))
                refreshed = pre.plan.actions(step).refresh
                for name in refreshed:
                    solver = pre.solvers[name]
                    if not pre.groups[name].is_grad_worker(comm.rank):  # the eigen state lives on gradient workers
                        assert (solver.eigen_a, solver.eigen_g, solver.inverse_outer) == (None, None, None)
                        continue
                    held += 1
                    if not pre.config.compute_eigen_outer:
                        assert solver.inverse_outer is None
                        continue
                    own = eigenvalue_outer_product(solver.eigen_a, solver.eigen_g, pre.damping, pre.precision.inverse_dtype)
                    np.testing.assert_array_equal(solver.inverse_outer, own, err_msg=f"{name} at step {step}")
                # The step's eigen round is the packed decompositions of the refreshed layers whose group has
                # more than one member, and nothing else.
                packed = sum(
                    (group.layer.a_repr.packed_eigen_numel + group.layer.g_repr.packed_eigen_numel)
                    * np.dtype(pre.precision.inverse_dtype).itemsize
                    for name, group in pre.groups.items()
                    if name in refreshed and len(group.grad_workers) > 1
                )
                assert sum(nbytes for _, nbytes in pre.plan.messages(step=step)["eigen"]) == packed
            keys = [spec.key.rpartition("/")[2] for specs in pre.plan.eigen_round.values() for spec in specs]
            assert set(keys) <= {"eigen_a", "eigen_g"}
            return held

        assert sum(run_spmd(4, program)) > 0  # under MEM-OPT one of the four ranks holds none of the three layers


class TestInverseRound:
    """A damped inverse is computed once, on the rank that holds the layer's two factors, and every gradient
    worker -- the decomposer included -- installs it from the same packed triangle."""

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem", "hybrid", "comm"])
    def test_every_gradient_worker_installs_the_same_inverse_and_the_round_carries_triangles_only(self, frac):
        def program(comm):
            model = MLP(6, [16, 8], 3, rng=np.random.default_rng(5))
            pre = KFAC(model, lr=0.05, factor_update_freq=1, inv_update_freq=2, grad_worker_frac=frac, comm=comm)
            loss_fn = nn.CrossEntropyLoss()
            trainer = Trainer(
                model, optim.SGD(model.parameters(), lr=0.05, momentum=0.9),
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]), preconditioner=pre, comm=comm,
            )  # fmt: skip
            batch_rng = np.random.default_rng(99)
            for step in range(6):
                local = batch_rng.integers(0, len(X_GLOBAL), 32)[comm.rank :: comm.world_size]
                trainer.train_step((X_GLOBAL[local], Y_GLOBAL[local]))
                refreshed = pre.plan.actions(step).refresh
                for name in refreshed:
                    layer, solver, group = pre.layers[name], pre.solvers[name], pre.groups[name]
                    assert not hasattr(solver, "eigen_a") and not hasattr(layer, "eigen_a")
                    assert not pre.plan.state_bytes_per_rank("eigen").any()
                    assert group.eigen_worker_a == group.eigen_worker_g  # one rank holds both traces
                    if not group.is_grad_worker(comm.rank):
                        assert solver.inv_a is None and solver.inv_g is None
                        continue
                    for inverse, dim in ((solver.inv_a, layer.a_dim), (solver.inv_g, layer.g_dim)):
                        assert isinstance(inverse, TriangleView) and inverse.dim == dim  # one triangle, no square
                        assert inverse.packed().shape == (dim * (dim + 1) // 2,)
                # The step's eigen round is the packed triangles of the refreshed layers whose group has more
                # than one member, and nothing else.
                triangles = sum(
                    (layer.a_dim * (layer.a_dim + 1) + layer.g_dim * (layer.g_dim + 1)) // 2 * 4
                    for name, group in pre.groups.items()
                    for layer in (group.layer,)
                    if name in refreshed and len(group.grad_workers) > 1
                )
                assert sum(nbytes for _, nbytes in pre.plan.messages(step=step)["eigen"]) == triangles
            keys = [spec.key.rpartition("/")[2] for specs in pre.plan.eigen_round.values() for spec in specs]
            assert set(keys) <= {"inverse_a", "inverse_g"}
            return {
                name: (pre.solvers[name].inv_a.packed(), pre.solvers[name].inv_g.packed())
                for name in pre.layers
                if pre.groups[name].is_grad_worker(comm.rank)
            }

        ranks = run_spmd(4, program)
        assert sum(len(held) for held in ranks) == 3 * max(1, round(4 * frac))  # each layer on its gradient workers
        for held in ranks:
            for name, inverses in held.items():
                first = next(other[name] for other in ranks if name in other)
                for mine, theirs in zip(inverses, first):  # the same bits, whichever triangle of a buffer holds them
                    assert mine.tobytes() == theirs.tobytes(), name


def layout_program(steps=3, **kfac_kwargs):
    """Train MLP(6, [16, 8], 3) through a ``Trainer`` and report what each rank ends up holding."""

    def program(comm):
        model = MLP(6, [16, 8], 3, rng=np.random.default_rng(5))
        pre = KFAC(model, lr=0.05, factor_update_freq=2, inv_update_freq=4, comm=comm, **kfac_kwargs)
        loss_fn = nn.CrossEntropyLoss()
        trainer = Trainer(
            model,
            optim.SGD(model.parameters(), lr=0.05, momentum=0.9),
            lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
            preconditioner=pre,
            comm=comm,
        )
        batch_rng = np.random.default_rng(99)
        for _ in range(steps):
            local = batch_rng.integers(0, len(X_GLOBAL), 32)[comm.rank :: comm.world_size]
            trainer.train_step((X_GLOBAL[local], Y_GLOBAL[local]))
        return {
            "params": np.concatenate([p.data.ravel() for p in model.parameters()]),
            "memory": pre.memory_usage(),
            "held": {
                (name, which): getattr(layer, f"factor_{which}") is not None
                for name, layer in pre.layers.items()
                for which in ("a", "g")
            },
            "decomposes": {
                (name, which): comm.rank in pre.plan.decomposers[name, which]
                for name in pre.layers
                for which in ("a", "g")
            },
            "grad_worker": {name: pre.groups[name].is_grad_worker(comm.rank) for name in pre.layers},
            "all_factor_bytes": sum(pre.plan.policy.factor_bytes(group.layer) for group in pre.groups.values()),
        }

    return program


class TestShardedFactorLayout:
    """A running factor lives only on the ranks whose own plan reads it (``KFAC.holds_factor``)."""

    @SOLVERS
    @pytest.mark.parametrize("world, frac", [(2, 0.5), (2, 1.0), (4, 0.25), (4, 0.5), (4, 1.0)])
    def test_default_knobs_store_each_factor_once_on_the_rank_that_decomposes_it(self, world, frac, solver):
        ranks = run_spmd(world, layout_program(grad_worker_frac=frac, solve_strategy=solver))
        for key in ranks[0]["held"]:
            holders = [rank for rank, entry in enumerate(ranks) if entry["held"][key]]
            assert holders == [rank for rank, entry in enumerate(ranks) if entry["decomposes"][key]]
            assert len(holders) == 1, f"{key} held by {holders}"
        assert sum(entry["memory"]["factors"] for entry in ranks) == ranks[0]["all_factor_bytes"]

    @pytest.mark.parametrize(
        "knob, solver",
        [({"drift_tol": 0.05, "max_staleness": 8}, "inverse"), ({"drift_tol": 0.05, "max_staleness": 8}, "eigen"),
         ({"drift_tol": 0.05, "max_staleness": 8}, "cg")],
        ids=["drift-inverse", "drift-eigen", "drift-cg"],
    )  # fmt: skip
    @pytest.mark.parametrize("frac", [0.25, 1.0])
    def test_knobs_every_rank_reads_factors_for_make_every_rank_hold_them(self, knob, frac, solver):
        """``drift_tol`` derives the plan from factor drift on every rank -- its one reason to hold every
        factor everywhere; the sanitizer's plan check holds the ranks to one plan."""
        ranks = run_spmd(4, layout_program(steps=6, grad_worker_frac=frac, solve_strategy=solver, **knob), sanitize=True)
        for entry in ranks:
            assert all(entry["held"].values())
            assert entry["memory"]["factors"] == ranks[0]["all_factor_bytes"]
            np.testing.assert_array_equal(entry["params"], ranks[0]["params"])

    def test_the_solver_that_reads_the_factors_holds_them_on_the_gradient_workers(self):
        ranks = run_spmd(4, layout_program(grad_worker_frac=0.5, solve_strategy="cg"))
        for (name, which), _ in ranks[0]["held"].items():
            for entry in ranks:
                assert entry["held"][(name, which)] == entry["grad_worker"][name]
        assert sum(entry["memory"]["factors"] for entry in ranks) == 2 * ranks[0]["all_factor_bytes"]

    @SOLVERS
    def test_strategies_agree_after_20_steps_at_any_bucket_cap(self, solver):
        """MEM / HYBRID / COMM-OPT are one algorithm; the bucket cap changes
        how many messages carry the bytes, not what they carry."""
        finals = {}
        for label, kwargs in {
            "mem": dict(grad_worker_frac=0.25, solve_strategy=solver),
            "hybrid": dict(grad_worker_frac=0.5, solve_strategy=solver),
            "comm": dict(grad_worker_frac=1.0, solve_strategy=solver),
        }.items():
            plain = run_spmd(4, layout_program(steps=20, **kwargs))
            fused = run_spmd(4, layout_program(steps=20, bucket_cap_mb=0.001, **kwargs))
            for entry in plain + fused:
                np.testing.assert_array_equal(entry["params"], plain[0]["params"], err_msg=label)
            finals[label] = plain[0]["params"]
            assert np.all(np.isfinite(finals[label]))
        for label in ("hybrid", "comm"):
            np.testing.assert_allclose(finals[label], finals["mem"], atol=1e-4, err_msg=label)


class TestBadWindowsAreContainedOnEveryRank:
    """Every rank receives the same averaged window, so every rank rejects a non-finite one
    without communication -- also when only one rank saw the bad data (ROADMAP "containment")."""

    @staticmethod
    def program(bad_step, steps=10, **kfac_kwargs):
        def program(comm):
            model = MLP(6, [16, 8], 3, rng=np.random.default_rng(5))
            ddp = DistributedDataParallel(model, comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pre = KFAC(model, lr=0.05, factor_update_freq=1, inv_update_freq=2, comm=comm, **kfac_kwargs)
            loss_fn = nn.CrossEntropyLoss()
            batch_rng = np.random.default_rng(99)
            report = {}
            for step in range(steps):
                local = batch_rng.integers(0, len(X_GLOBAL), 32)[comm.rank :: comm.world_size]
                optimizer.zero_grad()
                loss_fn(model(Tensor(X_GLOBAL[local])), Y_GLOBAL[local]).backward()
                ddp.sync_gradients()
                if step == bad_step:
                    if comm.rank == 1:  # one rank, one layer, one entry
                        pre.layers["layers.2"].accumulators()[1][0] = np.inf
                    before = {
                        key: None if factor is None else factor.copy()
                        for key, factor in TestBadWindowsAreContainedOnEveryRank.factors(pre).items()
                    }
                pre.step()
                if step == bad_step:
                    after = TestBadWindowsAreContainedOnEveryRank.factors(pre)
                    report["layers.2 untouched"] = all(
                        (before[key] is None and after[key] is None) or np.array_equal(before[key], after[key])
                        for key in after
                        if key[0] == "layers.2"
                    )
                    report["others folded"] = all(
                        not np.array_equal(before[key], after[key])
                        for key in after
                        if key[0] != "layers.2" and after[key] is not None
                    )
                    report["rejected"] = event_total(pre, "factor_windows_rejected")
                optimizer.step()
            report["params"] = np.concatenate([p.data.ravel() for p in model.parameters()])
            report["rejected at the end"] = layer_events(pre.tracer, "factor_windows_rejected", ["layers.2"])["layers.2"]
            return report

        return program

    @staticmethod
    def factors(pre):
        return {(name, which): getattr(layer, f"factor_{which}") for name, layer in pre.layers.items() for which in "ag"}

    @pytest.mark.parametrize("frac", [0.5, 1.0], ids=["mem-opt", "comm-opt"])
    def test_one_ranks_bad_window_is_rejected_by_both_and_training_goes_on(self, frac):
        ranks = run_spmd(2, self.program(bad_step=4, grad_worker_frac=frac))  # returns: no rank is left waiting
        for report in ranks:
            assert report["layers.2 untouched"] and report["others folded"]
            assert report["rejected"] == 1 and report["rejected at the end"] == 1
            assert np.all(np.isfinite(report["params"]))
            np.testing.assert_array_equal(report["params"], ranks[0]["params"])

    @pytest.mark.parametrize("frac", [0.5, 1.0], ids=["mem-opt", "comm-opt"])
    def test_a_bad_first_window_raises_the_same_named_error_on_every_rank(self, frac):
        errors = []

        def program(comm):
            try:
                self.program(bad_step=0, steps=1, grad_worker_frac=frac)(comm)
            except ValueError as error:
                errors.append((comm.rank, str(error)))

        run_spmd(2, program)
        assert sorted(rank for rank, _ in errors) == [0, 1]
        assert len({message for _, message in errors}) == 1 and "['layers.2']" in errors[0][1]
