"""Tests for the analytic iteration-time model (Figures 6-8 machinery)."""

import dataclasses

import numpy as np
import pytest

from repro.distributed import A100, DGX_A100_FABRIC, PerformanceModel
from repro.kfac import IterationTimeModel, KFACConfig, KFACWorkloadSpec, LayerShapeInfo

CONFIG_FIELDS = {f.name for f in dataclasses.fields(KFACConfig)}


def small_spec(**overrides):
    """The toy spec; overrides that name a :class:`KFACConfig` field go to its config."""
    knobs = {"factor_update_freq": 50, "inv_update_freq": 500}
    knobs.update({key: overrides.pop(key) for key in list(overrides) if key in CONFIG_FIELDS})
    layers = [
        LayerShapeInfo("conv1", a_dim=147, g_dim=64, grad_numel=147 * 64),
        LayerShapeInfo("conv2", a_dim=576, g_dim=128, grad_numel=576 * 128),
        LayerShapeInfo("fc", a_dim=2049, g_dim=1000, grad_numel=2049 * 1000),
    ]
    defaults = dict(
        name="toy",
        layers=layers,
        param_count=2_000_000,
        local_batch_size=32,
        baseline_compute_time=0.1,
        config=KFACConfig(**knobs),
        samples_per_input=100.0,
    )
    defaults.update(overrides)
    return KFACWorkloadSpec(**defaults)


class TestWorkloadSpec:
    def test_factor_bytes(self):
        spec = small_spec()
        triangle = lambda n: n * (n + 1) // 2  # noqa: E731  (a symmetric factor is stored, and shipped, once)
        expected = sum((triangle(l.a_dim) + triangle(l.g_dim)) * 4 for l in spec.layers)
        assert spec.factor_bytes == expected

    def test_gradient_bytes(self):
        assert small_spec().gradient_bytes == 2_000_000 * 4

    def test_fp16_halves_factor_bytes(self):
        assert small_spec(precision="fp16").factor_bytes == small_spec().factor_bytes // 2
        assert small_spec(precision="fp64").factor_bytes == small_spec().factor_bytes * 2

    def test_eigen_bytes_per_layer_includes_outer_product(self):
        spec = small_spec()
        layer = spec.layers[0]
        expected = (layer.a_dim ** 2 + layer.a_dim + layer.g_dim ** 2 + layer.g_dim + layer.a_dim * layer.g_dim) * 4
        assert spec.config.wire_policy().eigen_bytes(layer) == expected
        without_outer = small_spec(compute_eigen_outer=False).config.wire_policy().eigen_bytes(layer)
        assert expected - without_outer == layer.a_dim * layer.g_dim * 4


class TestIterationModel:
    def test_baseline_time_grows_with_world_size(self):
        model = IterationTimeModel()
        spec = small_spec()
        assert model.baseline_iteration_time(spec, 64) > model.baseline_iteration_time(spec, 2)

    def test_kaisa_slower_than_baseline_per_iteration(self):
        """K-FAC adds per-iteration overhead (it wins by needing fewer iterations)."""
        model = IterationTimeModel()
        spec = small_spec()
        for frac in (1 / 64, 0.5, 1.0):
            assert model.kaisa_iteration_time(spec, 64, frac) > model.baseline_iteration_time(spec, 64)

    def test_grad_broadcast_vanishes_at_comm_opt(self):
        model = IterationTimeModel()
        breakdown = model.kfac_breakdown(small_spec(), 64, 1.0)
        assert breakdown.grad_broadcast == 0.0

    def test_grad_broadcast_decreases_with_grad_worker_frac(self):
        """Figure 7: preconditioned-gradient broadcast time shrinks as workers increase."""
        model = IterationTimeModel()
        spec = small_spec()
        times = [model.kfac_breakdown(spec, 64, frac).grad_broadcast for frac in (1 / 64, 1 / 8, 1 / 2, 1.0)]
        assert all(earlier >= later for earlier, later in zip(times, times[1:]))
        assert times[0] > times[-1]

    def test_precondition_time_increases_with_grad_worker_frac(self):
        """Figure 7: every gradient worker preconditions more layers as the fraction grows."""
        model = IterationTimeModel()
        spec = small_spec()
        times = [model.kfac_breakdown(spec, 64, frac).precondition for frac in (1 / 64, 1 / 8, 1 / 2, 1.0)]
        assert times[0] < times[-1]

    def test_factor_stages_invariant_to_grad_worker_frac(self):
        """Figure 7: factor computation/communication and eigen decomposition are flat."""
        model = IterationTimeModel()
        spec = small_spec()
        breakdowns = [model.kfac_breakdown(spec, 64, frac) for frac in (1 / 64, 1 / 2, 1.0)]
        factor_comm = {round(b.factor_allreduce, 9) for b in breakdowns}
        factor_comp = {round(b.factor_compute, 9) for b in breakdowns}
        assert len(factor_comm) == 1 and len(factor_comp) == 1

    def test_eigen_broadcast_grows_with_grad_worker_frac(self):
        model = IterationTimeModel()
        spec = small_spec()
        small = model.kfac_breakdown(spec, 64, 1 / 64).eigen_broadcast
        large = model.kfac_breakdown(spec, 64, 1 / 2).eigen_broadcast
        assert large > small

    def test_longer_update_intervals_reduce_amortised_overhead(self):
        model = IterationTimeModel()
        frequent = small_spec(factor_update_freq=5, inv_update_freq=50)
        infrequent = small_spec(factor_update_freq=50, inv_update_freq=500)
        assert (
            model.kfac_breakdown(infrequent, 16, 1.0).kfac_overhead
            < model.kfac_breakdown(frequent, 16, 1.0).kfac_overhead
        )

    def test_breakdown_total_is_sum_of_stages(self):
        model = IterationTimeModel()
        breakdown = model.kfac_breakdown(small_spec(), 16, 0.5)
        assert breakdown.total == pytest.approx(
            breakdown.baseline_compute + breakdown.gradient_allreduce + breakdown.kfac_overhead
        )
        assert set(breakdown.as_dict()) >= {"precondition", "grad_broadcast", "eigen_decomposition"}

    def test_grad_accumulation_amortises_gradient_allreduce(self):
        model = IterationTimeModel()
        accumulated = small_spec(grad_accumulation_steps=16)
        plain = small_spec()
        assert (
            model.kfac_breakdown(accumulated, 16, 1.0).gradient_allreduce
            < model.kfac_breakdown(plain, 16, 1.0).gradient_allreduce
        )

    def test_world_size_one_has_no_communication(self):
        model = IterationTimeModel()
        breakdown = model.kfac_breakdown(small_spec(), 1, 1.0)
        assert breakdown.gradient_allreduce == 0.0
        assert breakdown.factor_allreduce == 0.0
        assert breakdown.grad_broadcast == 0.0

    def test_stage_times_per_rank_shapes(self):
        model = IterationTimeModel()
        per_rank = model.stage_times_per_rank(small_spec(), 8, 0.5)
        assert all(values.shape == (8,) for values in per_rank.values())
        # Eigen decompositions only charged to their assigned workers.
        assert np.count_nonzero(per_rank["eigen_decomposition"]) <= 6


    def test_refresh_interval_reports_the_heaviest_step_beside_the_single_refresh_step(self):
        """The plan's offsets split the eigen stage over an interval's steps; the amortised time is unchanged."""
        model = IterationTimeModel()
        spec = small_spec(factor_update_freq=5, inv_update_freq=10)
        one_step = small_spec(factor_update_freq=2, inv_update_freq=4)
        for world, frac in ((1, 1.0), (2, 0.5), (2, 1.0)):
            spread, single = model.refresh_interval(spec, world, frac), model.refresh_interval(one_step, world, frac)
            assert spread["single_refresh_step"] == pytest.approx(single["single_refresh_step"])
            assert single["heaviest_step"] == single["single_refresh_step"]
            assert (single["touched_steps"], single["interval_steps"]) == (2, 4)  # the folds on steps 0 and 2
            # One layer dwarfs the rest: under MEM-OPT at world 2 the rank that decomposes it sets both figures.
            assert spread["heaviest_step"] <= spread["single_refresh_step"]
            assert world > 1 or spread["heaviest_step"] < spread["single_refresh_step"]
            assert (spread["touched_steps"], spread["interval_steps"]) == (4, 10)  # folds on 0, 5; work on 1, 6
            per_rank = model.stage_times_per_rank(spec, world, frac)
            per_interval = 10 * (per_rank["eigen_decomposition"] + per_rank["eigen_broadcast"])
            assert float(per_interval.max()) == pytest.approx(spread["single_refresh_step"])


class TestSpeedupProjection:
    def test_speedup_requires_fewer_iterations_to_win(self):
        model = IterationTimeModel()
        spec = small_spec()
        faster = model.speedup_over_baseline(spec, 32, 1.0, baseline_iterations=90, kaisa_iterations=55)
        equal_iters = model.speedup_over_baseline(spec, 32, 1.0, baseline_iterations=90, kaisa_iterations=90)
        assert faster > 1.0
        assert equal_iters < 1.0  # same iteration count cannot win (overhead per iteration)

    def test_comm_opt_speedup_improves_with_scale(self):
        """Figure 8: COMM-OPT's speedup grows with GPU count."""
        model = IterationTimeModel(PerformanceModel(device=A100, network=DGX_A100_FABRIC))
        spec = small_spec()
        speedups = [
            model.speedup_over_baseline(spec, world, 1.0, baseline_iterations=90, kaisa_iterations=55)
            for world in (8, 32, 128)
        ]
        assert speedups[0] < speedups[-1]

    def test_comm_opt_advantage_over_mem_opt_grows_with_scale(self):
        """Figure 8: trading memory for communication (COMM-OPT) pays off more at scale.

        The gap between the COMM-OPT and MEM-OPT speedups must widen as the
        world size grows, because MEM-OPT's per-iteration preconditioned-gradient
        broadcast becomes more expensive while COMM-OPT's overhead stays amortised.
        """
        model = IterationTimeModel(PerformanceModel(device=A100, network=DGX_A100_FABRIC))
        spec = small_spec()
        gaps = []
        for world in (8, 32, 128):
            comm_opt = model.speedup_over_baseline(spec, world, 1.0, baseline_iterations=90, kaisa_iterations=55)
            mem_opt = model.speedup_over_baseline(spec, world, 1.0 / world, baseline_iterations=90, kaisa_iterations=55)
            gaps.append(comm_opt - mem_opt)
        assert gaps[0] < gaps[1] < gaps[2]
        assert all(gap >= 0 for gap in gaps)
