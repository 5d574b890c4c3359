"""Tests for per-rank memory accounting (Table 5 / Table 4 machinery): the memory read of a workload spec."""

import numpy as np
import pytest

from repro.kfac import EigenSolveStrategy, KFACConfig, KFACWorkloadSpec, LayerShapeInfo
from repro.memory import (
    MB,
    MemoryBreakdown,
    max_local_batch_size,
    memory_breakdown,
    optimizer_state_multiplier,
    overhead_bytes,
    paper_factor_bytes,
)
from repro.models import MLP


#: The paper's eigen path, for the tests that read eigen state (the default solve path keeps none).
EIGEN = KFACConfig(solve_strategy="eigen")


def workload(layers, param_count, config=None, **fields):
    """A spec that only the memory functions read: no batch, no compute time."""
    return KFACWorkloadSpec(
        "memory", layers, param_count, local_batch_size=0, baseline_compute_time=0.0,
        config=config if config is not None else KFACConfig(), **fields,
    )  # fmt: skip


def layers():
    return [
        LayerShapeInfo.dense("conv1", 147, 64),
        LayerShapeInfo.dense("conv2", 576, 128),
        LayerShapeInfo.dense("fc", 513, 100),
    ]


class TestHelpers:
    def test_optimizer_state_multipliers(self):
        assert optimizer_state_multiplier("sgd") == 1
        assert optimizer_state_multiplier("adam") == 2
        assert optimizer_state_multiplier("LAMB") == 2
        with pytest.raises(ValueError):
            optimizer_state_multiplier("adagrad")

    def test_breakdown_percent(self):
        breakdown = MemoryBreakdown(weights=100, gradients=100, optimizer_state=100, kfac_factors=60, kfac_eigen=30)
        assert breakdown.baseline_total == 300
        assert breakdown.kfac_overhead == 90
        assert breakdown.overhead_percent == pytest.approx(30.0)
        assert breakdown.total == 390
        assert breakdown.as_megabytes()["total"] == pytest.approx(390 / MB)


class TestWorkloadSpecMemory:
    def test_factor_bytes_shared_by_all_ranks(self):
        """``paper_factor_bytes`` is what every rank holds in the paper's layout (all factors, square);
        ``spec.factor_bytes`` is what this tree's ranks hold between them: each factor once, as its triangle."""
        spec = workload(layers(), param_count=1_000_000)
        assert paper_factor_bytes(spec) == sum((l.a_dim ** 2 + l.g_dim ** 2) * 4 for l in layers())
        triangle = lambda n: n * (n + 1) // 2  # noqa: E731
        assert spec.factor_bytes == sum((triangle(l.a_dim) + triangle(l.g_dim)) * 4 for l in layers())

    @pytest.mark.parametrize("world, frac", [(1, 1.0), (2, 0.5), (8, 1 / 8), (8, 0.5), (8, 1.0), (64, 1 / 64)])
    def test_factor_bytes_per_rank_stores_each_factor_once(self, world, frac):
        """This tree's layout: a factor lives on the one rank that decomposes it."""
        for config in (KFACConfig(), EIGEN):
            spec = workload(layers(), param_count=1_000_000, config=config)
            per_rank = spec.plan(world, frac).factor_bytes_per_rank()
            assert per_rank.sum() == spec.factor_bytes
            # COMM-OPT spreads the six factors of the eigen path one by one; otherwise, and wherever a
            # layer is inverted, a layer's pair stays together.
            spread = frac == 1.0 and config.solve_strategy == "eigen"
            assert np.count_nonzero(per_rank) == min(world, 6 if spread else 3)

    def test_max_rank_takes_factors_and_eigen_state_of_one_rank_together(self):
        spec = workload(layers(), param_count=1_000_000, config=EIGEN)
        plan = spec.plan(8, 1 / 8)
        factors, eigen = plan.factor_bytes_per_rank(), plan.state_bytes_per_rank("eigen")
        busiest = memory_breakdown(spec, 8, 1 / 8, rank="max")
        assert busiest.kfac_overhead == (factors + eigen).max()
        assert (busiest.kfac_factors, busiest.kfac_eigen) in set(zip(factors.tolist(), eigen.tolist()))
        # MEM-OPT: (factors + eigen) / world, not factors + eigen / world.
        assert busiest.kfac_overhead == factors.max() + eigen.max() < spec.factor_bytes + eigen.max()
        assert memory_breakdown(spec, 8, 1 / 8, rank="min").kfac_overhead == 0  # three layers, eight ranks
        assert memory_breakdown(spec, 1, 1.0).kfac_factors == spec.factor_bytes  # one rank reads everything

    def test_overhead_linear_in_grad_worker_frac(self):
        """Table 5 / Figure 6: K-FAC memory overhead grows linearly with grad_worker_frac."""
        spec = workload(layers(), param_count=1_000_000)
        fracs = [1 / 64, 1 / 4, 1 / 2, 1.0]
        overheads = [overhead_bytes(spec, 64, frac, rank="mean") for frac in fracs]
        assert overheads[0] < overheads[1] < overheads[2] < overheads[3]
        eigen_part = [o - spec.factor_bytes // 64 for o in overheads]  # the mean rank holds 1/64 of the factors
        # Eigen memory should scale (approximately) proportionally with the fraction.
        ratio = eigen_part[3] / eigen_part[2]
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_max_to_min_overhead_ratio_in_paper_range(self):
        """The paper reports max/min K-FAC overhead ratios of 1.5-2.9x across models."""
        spec = workload(layers(), param_count=1_000_000)
        minimum = overhead_bytes(spec, 64, 1 / 64, rank="max")
        maximum = overhead_bytes(spec, 64, 1.0, rank="max")
        assert 1.3 < maximum / minimum < 3.5

    def test_comm_opt_every_rank_holds_all_eigen(self):
        spec = workload(layers(), param_count=1_000_000, config=EIGEN)
        per_rank = spec.plan(8, 1.0).state_bytes_per_rank("eigen")
        assert len(set(per_rank.tolist())) == 1
        assert per_rank[0] == sum(EigenSolveStrategy.state_bytes([l], spec.config.precision_policy()) for l in layers())

    def test_mem_opt_eigen_memory_spread_across_ranks(self):
        spec = workload(layers(), param_count=1_000_000, config=EIGEN)
        per_rank = spec.plan(8, 1 / 8).state_bytes_per_rank("eigen")
        assert per_rank.sum() == sum(EigenSolveStrategy.state_bytes([l], spec.config.precision_policy()) for l in layers())
        assert np.count_nonzero(per_rank) <= len(layers())

    def test_fp16_precision_halves_overhead(self):
        fp32, fp16, fp64 = (
            workload(layers(), 1_000_000, config=KFACConfig(precision=precision), optimizer="sgd")
            for precision in ("fp32", "fp16", "fp64")
        )
        assert overhead_bytes(fp16, 8, 1.0) == overhead_bytes(fp32, 8, 1.0) // 2
        assert overhead_bytes(fp64, 8, 1.0) == overhead_bytes(fp32, 8, 1.0) * 2

    def test_baseline_breakdown_has_no_kfac(self):
        spec = workload(layers(), param_count=500_000, optimizer="adam", activation_bytes_per_sample=1000)
        breakdown = memory_breakdown(spec, 8, None, local_batch_size=32)
        assert breakdown.kfac_overhead == 0
        assert breakdown.optimizer_state == 500_000 * 4 * 2
        assert breakdown.activations == 32_000

    def test_breakdown_rank_selection(self):
        spec = workload(layers(), param_count=500_000)
        maximum = memory_breakdown(spec, 8, 0.25, rank="max").kfac_eigen
        minimum = memory_breakdown(spec, 8, 0.25, rank="min").kfac_eigen
        assert maximum >= minimum
        with pytest.raises(ValueError):
            memory_breakdown(spec, 8, 0.25, rank="median")
        with pytest.raises(ValueError):  # the baseline breakdown refuses it too
            memory_breakdown(spec, 8, None, rank="median")

    def test_every_eigen_holder_is_charged_the_cached_outer_product(self):
        """Section 4.4: each gradient worker of an eigen layer holds both decompositions and the ``g × a`` damped
        outer product it caches once per refresh."""
        spec = workload(layers(), 1_000_000, config=EIGEN)
        per_layer = [4 * (l.a_dim**2 + l.a_dim + l.g_dim**2 + l.g_dim + l.a_dim * l.g_dim) for l in layers()]
        assert spec.plan(4, 1.0).state_bytes_per_rank("eigen").tolist() == [sum(per_layer)] * 4

    @pytest.mark.parametrize("world, frac", [(8, 1 / 8), (8, 0.5), (8, 1.0)])
    def test_the_inverse_path_holds_inverse_squares_on_the_gradient_workers_and_no_eigen_state(self, world, frac):
        spec = workload(layers(), param_count=1_000_000)
        plan = spec.plan(world, frac)
        assert not plan.state_bytes_per_rank("eigen").any()
        per_rank = plan.state_bytes_per_rank("solver")
        assert (per_rank == plan.state_bytes_per_rank()).all()
        squares = [4 * (l.a_dim**2 + l.g_dim**2) for l in layers()]
        workers = max(1, round(frac * world))
        assert per_rank.sum() == workers * sum(squares)  # each layer's inverses on its gradient workers
        busiest = memory_breakdown(spec, world, frac, rank="max")
        total = plan.factor_bytes_per_rank() + per_rank
        assert busiest.kfac_overhead == busiest.kfac_factors + busiest.kfac_solver == total.max()

    def test_max_local_batch_size_shrinks_with_kfac(self):
        """Table 4: under a fixed memory budget K-FAC forces a smaller local batch."""
        spec = workload(layers(), param_count=2_000_000, activation_bytes_per_sample=200_000)
        budget = 512 * 1024 * 1024
        baseline_batch = max_local_batch_size(spec, budget, 64, None)
        comm_opt_batch = max_local_batch_size(spec, budget, 64, 1.0)
        hybrid_batch = max_local_batch_size(spec, budget, 64, 0.5)
        mem_opt_batch = max_local_batch_size(spec, budget, 64, 1 / 64)
        assert baseline_batch > mem_opt_batch > hybrid_batch > 0
        # With three layers on 64 ranks HYBRID's busiest rank keeps one layer's *pair* of factors
        # beside all eigen state while COMM-OPT spreads the six factors singly, so the two are a
        # factor apart either way; both pay for every decomposition.
        assert mem_opt_batch > comm_opt_batch > 0

    def test_max_local_batch_zero_when_budget_too_small(self):
        spec = workload(layers(), param_count=10_000_000, activation_bytes_per_sample=100_000)
        assert max_local_batch_size(spec, 10 * 1024 * 1024, 8, 1.0) == 0

    def test_max_local_batch_requires_activation_size(self):
        spec = workload(layers(), param_count=1_000)
        with pytest.raises(ValueError):
            max_local_batch_size(spec, 1 << 30, 8, 1.0)

    @pytest.mark.parametrize(
        "world, frac",
        [(1, 1.0), (2, 0.5), (2, 1.0), (3, 2 / 3), (3, 1.0), (4, 0.5), (4, 1.0)],
        ids=["w1", "w2-mem-opt", "w2-comm-opt", "w3-hybrid-opt", "w3-comm-opt", "w4-hybrid-opt", "w4-comm-opt"],
    )
    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    def test_matches_live_preconditioner_measurement(self, solver, world, frac):
        """The planning model must agree with the bytes a real KFAC instance reports, rank by rank, on every path.

        Six layers of dims 9 / 17 (A) and 16 / 4 (G): in every row some rank holds an odd count of one
        dimension, so the inverse path's pairing leaves one of them alone (its square) beside ``n+1`` / ``n``
        and ``n`` / ``n`` pairs.  Under MEM-OPT each rank is the one gradient worker of its layers, under
        HYBRID-OPT two ranks are and under COMM-OPT every rank is, so the second-order state -- eigen or
        inverse -- is held where the plan's one rule puts it.
        """
        from collections import Counter

        from repro import nn
        from repro.distributed import run_spmd
        from repro.kfac import KFAC
        from repro.tensor import Tensor

        config = KFACConfig(factor_update_freq=1, inv_update_freq=1, solve_strategy=solver, grad_worker_frac=frac)
        x = np.random.default_rng(1).standard_normal((32, 8)).astype(np.float32)
        y = np.random.default_rng(2).integers(0, 4, 32)

        def program(comm):
            model = MLP(8, [16] * 5, 4, rng=np.random.default_rng(0))
            pre = KFAC(model, config, comm=comm)
            local = slice(comm.rank, None, world)
            nn.CrossEntropyLoss()(model(Tensor(x[local])), y[local]).backward()
            pre.step(lr=0.1)
            return pre.memory_usage(), [layer.shape_info() for layer in pre.layers.values()], model.num_parameters()

        ranks = run_spmd(world, program)
        spec = workload(ranks[0][1], param_count=ranks[0][2], config=config)
        plan = spec.plan(world, config.grad_worker_frac)
        held_dims = [
            Counter(d for group in plan.groups.values() if group.is_grad_worker(rank) for d in (group.layer.a_dim, group.layer.g_dim))
            for rank in range(world)
        ]
        assert any(count % 2 and count > 1 for dims in held_dims for count in dims.values())
        factors, state = plan.factor_bytes_per_rank(), plan.state_bytes_per_rank()
        for rank, (measured, *_) in enumerate(ranks):
            assert measured["factors"] == factors[rank], rank
            assert measured["eigen"] == plan.state_bytes_per_rank("eigen")[rank], rank
            assert measured["solver"] == plan.state_bytes_per_rank("solver")[rank], rank
            assert measured["total"] == factors[rank] + state[rank], rank
        assert sum(measured["factors"] for measured, *_ in ranks) == spec.factor_bytes
        held = {key: sum(measured[key] for measured, *_ in ranks) for key in ("eigen", "solver")}
        assert (held["eigen"] > 0) == (solver == "eigen") != (held["solver"] > 0)
        assert state.all()  # every rank is a gradient worker of some layer

    def test_tiny_bert_holds_its_inverses_two_to_a_square_at_world_1(self):
        """The ``bert`` workload's damped inverses after one step take the paired bytes, not the squares' 5 526 144.

        Dense dims 513 ×2, 512 ×2, 129 ×10, 128 ×10 and 2 ×5 pair as (513, 513), (512, 512), five (129, 129),
        five (128, 128) and two (2, 2), one 2 alone; the five diagonal G factors of 128 keep their reciprocals:
        514·513 + 513·512 + 5·130·129 + 5·129·128 + 2·3·2 + 2² + 5·128 = 693 404 float32 elements.
        """
        from repro.experiments import build_workload
        from repro.kfac import KFAC

        built = build_workload("bert", seed=0)
        pre = KFAC.from_config(built.model, built.config.kfac_config(), skip_modules=built.kfac_skip_modules)
        built.forward_loss(built.model, next(iter(built.train_loader))).backward()
        pre.step(lr=built.config.kfac_lr)
        usage = pre.memory_usage()
        pre.remove()
        assert usage["solver"] == 4 * 693_404 == pre.plan.state_bytes_per_rank("solver")[0]
        assert usage["total"] == usage["factors"] + usage["solver"] == 5_547_228
