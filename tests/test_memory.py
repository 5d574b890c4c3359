"""Tests for per-rank memory accounting (Table 5 / Table 4 machinery)."""

import numpy as np
import pytest

from repro.kfac import KFACConfig, LayerShapeInfo
from repro.memory import MB, KFACMemoryModel, MemoryBreakdown, model_parameter_bytes, optimizer_state_multiplier
from repro.models import MLP


def layers():
    return [
        LayerShapeInfo("conv1", a_dim=147, g_dim=64, grad_numel=147 * 64),
        LayerShapeInfo("conv2", a_dim=576, g_dim=128, grad_numel=576 * 128),
        LayerShapeInfo("fc", a_dim=513, g_dim=100, grad_numel=513 * 100),
    ]


class TestHelpers:
    def test_model_parameter_bytes_from_module(self):
        model = MLP(4, [8], 2, rng=np.random.default_rng(0))
        assert model_parameter_bytes(model) == model.num_parameters() * 4

    def test_model_parameter_bytes_from_count(self):
        assert model_parameter_bytes(1000, dtype_bytes=2) == 2000

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


class TestKFACMemoryModel:
    def test_factor_bytes_shared_by_all_ranks(self):
        """``paper_factor_bytes()`` is what every rank holds in the paper's layout (all factors, square);
        ``factor_bytes()`` is what this tree's ranks hold between them: each factor once, as its triangle."""
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        assert model.paper_factor_bytes() == sum((l.a_dim ** 2 + l.g_dim ** 2) * 4 for l in layers())
        triangle = lambda n: n * (n + 1) // 2  # noqa: E731
        assert model.factor_bytes() == sum((triangle(l.a_dim) + triangle(l.g_dim)) * 4 for l in layers())

    @pytest.mark.parametrize("world, frac", [(1, 1.0), (2, 0.5), (8, 1 / 8), (8, 0.5), (8, 1.0), (64, 1 / 64)])
    def test_factor_bytes_per_rank_stores_each_factor_once(self, world, frac):
        """This tree's layout: a factor lives on the one rank that decomposes it."""
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        per_rank = model.factor_bytes_per_rank(world, frac)
        assert per_rank.sum() == model.factor_bytes()
        # COMM-OPT spreads the six factors one by one, the others keep a layer's pair together.
        assert np.count_nonzero(per_rank) == min(world, 6 if frac == 1.0 else 3)

    def test_max_rank_takes_factors_and_eigen_state_of_one_rank_together(self):
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        factors, eigen = model.factor_bytes_per_rank(8, 1 / 8), model.eigen_bytes_per_rank(8, 1 / 8)
        busiest = model.breakdown(8, 1 / 8, rank="max")
        assert busiest.kfac_overhead == (factors + eigen).max()
        assert (busiest.kfac_factors, busiest.kfac_eigen) in set(zip(factors.tolist(), eigen.tolist()))
        # MEM-OPT: (factors + eigen) / world, not factors + eigen / world.
        assert busiest.kfac_overhead == factors.max() + eigen.max() < model.factor_bytes() + eigen.max()
        assert model.breakdown(8, 1 / 8, rank="min").kfac_overhead == 0  # three layers, eight ranks
        assert model.breakdown(1, 1.0).kfac_factors == model.factor_bytes()  # one rank reads everything

    def test_overhead_linear_in_grad_worker_frac(self):
        """Table 5 / Figure 6: K-FAC memory overhead grows linearly with grad_worker_frac."""
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        fracs = [1 / 64, 1 / 4, 1 / 2, 1.0]
        overheads = [model.overhead_bytes(64, frac, rank="mean") for frac in fracs]
        assert overheads[0] < overheads[1] < overheads[2] < overheads[3]
        eigen_part = [o - model.factor_bytes() // 64 for o in overheads]  # the mean rank holds 1/64 of the factors
        # Eigen memory should scale (approximately) proportionally with the fraction.
        ratio = eigen_part[3] / eigen_part[2]
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_max_to_min_overhead_ratio_in_paper_range(self):
        """The paper reports max/min K-FAC overhead ratios of 1.5-2.9x across models."""
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        minimum = model.overhead_bytes(64, 1 / 64, rank="max")
        maximum = model.overhead_bytes(64, 1.0, rank="max")
        assert 1.3 < maximum / minimum < 3.5

    def test_comm_opt_every_rank_holds_all_eigen(self):
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        per_rank = model.eigen_bytes_per_rank(8, 1.0)
        assert len(set(per_rank.tolist())) == 1
        assert per_rank[0] == sum(model.config.wire_policy().eigen_bytes(l) for l in layers())

    def test_mem_opt_eigen_memory_spread_across_ranks(self):
        model = KFACMemoryModel(layers(), param_count=1_000_000)
        per_rank = model.eigen_bytes_per_rank(8, 1 / 8)
        assert per_rank.sum() == sum(model.config.wire_policy().eigen_bytes(l) for l in layers())
        assert np.count_nonzero(per_rank) <= len(layers())

    def test_fp16_precision_halves_overhead(self):
        fp32 = KFACMemoryModel(layers(), 1_000_000, "sgd", config=KFACConfig(precision="fp32"))
        fp16 = KFACMemoryModel(layers(), 1_000_000, "sgd", config=KFACConfig(precision="fp16"))
        fp64 = KFACMemoryModel(layers(), 1_000_000, "sgd", config=KFACConfig(precision="fp64"))
        assert fp16.overhead_bytes(8, 1.0) == fp32.overhead_bytes(8, 1.0) // 2
        assert fp64.overhead_bytes(8, 1.0) == fp32.overhead_bytes(8, 1.0) * 2

    def test_baseline_breakdown_has_no_kfac(self):
        model = KFACMemoryModel(layers(), param_count=500_000, optimizer="adam", activation_bytes_per_sample=1000)
        breakdown = model.breakdown(8, None, local_batch_size=32)
        assert breakdown.kfac_overhead == 0
        assert breakdown.optimizer_state == 500_000 * 4 * 2
        assert breakdown.activations == 32_000

    def test_breakdown_rank_selection(self):
        model = KFACMemoryModel(layers(), param_count=500_000)
        maximum = model.breakdown(8, 0.25, rank="max").kfac_eigen
        minimum = model.breakdown(8, 0.25, rank="min").kfac_eigen
        assert maximum >= minimum
        with pytest.raises(ValueError):
            model.breakdown(8, 0.25, rank="median")

    def test_outer_product_can_be_excluded(self):
        with_outer = KFACMemoryModel(layers(), 1_000_000, config=KFACConfig(compute_eigen_outer=True))
        without = KFACMemoryModel(layers(), 1_000_000, config=KFACConfig(compute_eigen_outer=False))
        assert with_outer.overhead_bytes(4, 1.0) > without.overhead_bytes(4, 1.0)

    def test_max_local_batch_size_shrinks_with_kfac(self):
        """Table 4: under a fixed memory budget K-FAC forces a smaller local batch."""
        model = KFACMemoryModel(layers(), param_count=2_000_000, activation_bytes_per_sample=200_000)
        budget = 512 * 1024 * 1024
        baseline_batch = model.max_local_batch_size(budget, 64, None)
        comm_opt_batch = model.max_local_batch_size(budget, 64, 1.0)
        hybrid_batch = model.max_local_batch_size(budget, 64, 0.5)
        mem_opt_batch = model.max_local_batch_size(budget, 64, 1 / 64)
        assert baseline_batch > mem_opt_batch > hybrid_batch > 0
        # With three layers on 64 ranks HYBRID's busiest rank keeps one layer's *pair* of factors
        # beside all eigen state while COMM-OPT spreads the six factors singly, so the two are a
        # factor apart either way; both pay for every decomposition.
        assert mem_opt_batch > comm_opt_batch > 0

    def test_max_local_batch_zero_when_budget_too_small(self):
        model = KFACMemoryModel(layers(), param_count=10_000_000, activation_bytes_per_sample=100_000)
        assert model.max_local_batch_size(10 * 1024 * 1024, 8, 1.0) == 0

    def test_max_local_batch_requires_activation_size(self):
        model = KFACMemoryModel(layers(), param_count=1_000)
        with pytest.raises(ValueError):
            model.max_local_batch_size(1 << 30, 8, 1.0)

    def test_matches_live_preconditioner_measurement(self):
        """The planning model must agree with the bytes a real KFAC instance reports."""
        from repro import nn
        from repro.kfac import KFAC
        from repro.tensor import Tensor

        model = MLP(8, [16], 4, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        x = np.random.default_rng(1).standard_normal((32, 8)).astype(np.float32)
        y = np.random.default_rng(2).integers(0, 4, 32)
        nn.CrossEntropyLoss()(model(Tensor(x)), y).backward()
        pre.step()
        measured = pre.memory_usage()

        shapes = [layer.shape_info() for layer in pre.layers.values()]
        planner = KFACMemoryModel(shapes, param_count=model.num_parameters())
        assert planner.factor_bytes() == measured["factors"]
        assert planner.eigen_bytes_per_rank(1, 1.0)[0] == measured["eigen"]
