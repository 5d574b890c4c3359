"""Tests for the communication backends, their per-rank registries, the cost model and data-parallel helpers."""

import threading

import numpy as np
import pytest

from repro.distributed import (
    A100,
    EDR_INFINIBAND,
    ETHERNET_10G,
    V100,
    Communicator,
    DistributedSampler,
    PerformanceModel,
    SingleProcessCommunicator,
    ThreadedWorld,
    flatten_arrays,
    run_spmd,
    shard_batch,
    unflatten_array,
)
from repro.observability import Tracer

from counters import comm_counts


class TestPerformanceModel:
    def test_allreduce_zero_for_single_rank(self):
        assert PerformanceModel().allreduce_time(1e6, 1) == 0.0

    def test_allreduce_scales_with_bytes(self):
        model = PerformanceModel()
        assert model.allreduce_time(2e6, 8) > model.allreduce_time(1e6, 8)

    def test_allreduce_latency_grows_with_world(self):
        model = PerformanceModel()
        assert model.allreduce_time(1e3, 64) > model.allreduce_time(1e3, 4)

    def test_broadcast_log_scaling(self):
        model = PerformanceModel()
        t2 = model.broadcast_time(1e6, 2)
        t8 = model.broadcast_time(1e6, 8)
        t64 = model.broadcast_time(1e6, 64)
        assert t2 < t8 < t64
        # O(log p): doubling group size beyond a power of two adds one hop.
        assert t64 / t2 == pytest.approx(6.0, rel=0.01)

    def test_broadcast_single_rank_free(self):
        assert PerformanceModel().broadcast_time(1e6, 1) == 0.0

    def test_compute_time_uses_fp16_peak(self):
        model = PerformanceModel(device=A100)
        assert model.compute_time(1e12, dtype_bytes=2) < model.compute_time(1e12, dtype_bytes=4)

    def test_eigen_time_cubic_growth(self):
        model = PerformanceModel()
        assert model.eigen_decomposition_time(512) / model.eigen_decomposition_time(256) == pytest.approx(8.0, rel=0.01)

    def test_slow_network_increases_comm_cost(self):
        fast = PerformanceModel(network=EDR_INFINIBAND)
        slow = PerformanceModel(network=ETHERNET_10G)
        assert slow.allreduce_time(1e8, 16) > fast.allreduce_time(1e8, 16)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            PerformanceModel(compute_efficiency=0.0)

    def test_device_specs(self):
        assert A100.memory_bytes > V100.memory_bytes
        assert V100.peak_flops(2) == V100.peak_flops_fp16


class TestRankRegistry:
    """Each communicator builds its rank's one tracer; the backend counts the collectives that complete there."""

    def test_every_communicator_has_its_own_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        world = ThreadedWorld(3)
        comms = [world.communicator(rank) for rank in range(3)] + [SingleProcessCommunicator()]
        tracers = [comm.tracer for comm in comms]
        assert all(isinstance(tracer, Tracer) for tracer in tracers)
        assert len({id(tracer) for tracer in tracers}) == 4
        assert [tracer.rank for tracer in tracers] == [0, 1, 2, 0]
        assert not any(tracer.enabled for tracer in tracers)

    def test_tracer_is_an_instance_attribute(self):
        """A wrapper that forwards unknown attributes reaches the wrapped backend's tracer."""
        assert not hasattr(Communicator, "tracer")

        class Forwarding(Communicator):
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

        inner = SingleProcessCommunicator()
        assert Forwarding(inner).tracer is inner.tracer

    def test_env_toggle_enables_spans_not_counting(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert SingleProcessCommunicator().tracer.enabled
        monkeypatch.setenv("REPRO_TRACE", "0")
        comm = SingleProcessCommunicator()
        with comm.tracer.span("ignored"):
            comm.tracer.counter_add("kept")
        assert not comm.tracer.spans and comm.tracer.counters() == {"kept": 1.0}

    def test_counts_are_per_rank_and_per_group(self):
        def program(comm):
            comm.allreduce_average(np.ones(256, dtype=np.float32))  # the world
            pair = (0, 1) if comm.rank < 2 else (2, 3)
            comm.broadcast(np.ones(10, dtype=np.float64) if comm.rank == pair[0] else None, src=pair[0], group=pair)
            if comm.rank == 0:
                comm.allreduce_average(np.ones(4, dtype=np.float32), group=(0,))  # a group of one: not counted
            return comm_counts(comm.tracer)

        for counts in run_spmd(4, program):
            assert counts == {"allreduce": (1, 1024, 1), "broadcast": (1, 80, 1)}

    def test_single_process_communicator_counts_nothing(self):
        comm = SingleProcessCommunicator()
        comm.allreduce_average(np.ones(3))
        comm.broadcast(np.ones(3), src=0)
        assert comm.tracer.counters() == {}


class TestSingleProcessCommunicator:
    def test_identity_semantics(self):
        comm = SingleProcessCommunicator()
        data = np.arange(4.0)
        assert comm.world_size == 1 and comm.rank == 0
        np.testing.assert_array_equal(comm.allreduce_average(data), data)
        np.testing.assert_array_equal(comm.broadcast(data, src=0), data)
        comm.barrier()

    def test_broadcast_requires_value(self):
        with pytest.raises(ValueError):
            SingleProcessCommunicator().broadcast(None, src=0)


class TestThreadedWorld:
    def test_allreduce_average_across_ranks(self):
        def program(comm):
            value = np.full(4, float(comm.rank), dtype=np.float32)
            return comm.allreduce_average(value)

        results = run_spmd(4, program)
        for result in results:
            np.testing.assert_allclose(result, 1.5)

    def test_allreduce_average_of_a_large_fused_buffer_matches_whole_buffer_mean(self):
        """The reducer accumulates the contributions in rank order into one result
        buffer (a fused bucket costs no stacked copy of every rank's); the result
        must be the whole-buffer ``np.mean`` bit for bit, for every world size,
        dtype (float16 accumulates in float32, as ``np.mean`` does) and layout."""
        size = 100_003
        for world in (2, 3, 4):
            for dtype in (np.float16, np.float32, np.float64):
                contributions = [
                    (np.random.default_rng(rank).standard_normal((size // 5, 5)) * 3 * 10**rank).astype(dtype)
                    for rank in range(world)
                ]
                contributions[1] = np.asfortranarray(contributions[1])
                expected = np.mean(np.stack(contributions, axis=0), axis=0).astype(dtype)
                results = run_spmd(world, lambda comm: comm.allreduce_average(contributions[comm.rank]))
                for rank, result in enumerate(results):
                    assert result.dtype == dtype
                    np.testing.assert_array_equal(result, expected)
                    # A private copy: the K-FAC fold consumes the received buffer in place.
                    assert not any(np.shares_memory(result, other) for other in results[:rank] + contributions)

    def test_broadcast_from_source(self):
        def program(comm):
            value = np.arange(5, dtype=np.float32) if comm.rank == 2 else None
            return comm.broadcast(value, src=2)

        for result in run_spmd(4, program):
            np.testing.assert_allclose(result, np.arange(5))

    def test_subgroup_collectives_are_independent(self):
        def program(comm):
            group = (0, 1) if comm.rank < 2 else (2, 3)
            value = np.array([float(comm.rank)], dtype=np.float32)
            return comm.allreduce_average(value, group=group)

        results = run_spmd(4, program)
        np.testing.assert_allclose(results[0], 0.5)
        np.testing.assert_allclose(results[2], 2.5)

    def test_sequence_of_collectives_stays_matched(self):
        def program(comm):
            outputs = []
            for step in range(5):
                outputs.append(comm.allreduce_average(np.array([float(comm.rank + step)], dtype=np.float32))[0])
            return outputs

        results = run_spmd(3, program)
        assert results[0] == results[1] == results[2]

    def test_rank_not_in_group_rejected(self):
        world = ThreadedWorld(2)
        comm = world.communicator(0)
        with pytest.raises(ValueError):
            comm.allreduce_average(np.zeros(1), group=(1,))

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            ThreadedWorld(2).communicator(5)

    def test_registry_records_collectives(self):
        world = ThreadedWorld(2)
        comms = [world.communicator(rank) for rank in range(2)]

        threads = [
            threading.Thread(target=lambda comm=comm: comm.allreduce_average(np.ones(1024, dtype=np.float32)))
            for comm in comms
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for comm in comms:
            assert comm_counts(comm.tracer)["allreduce"] == (1, 1024 * 4, 1)

    def test_failing_rank_propagates_error(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return None

        with pytest.raises(RuntimeError):
            run_spmd(2, program)


class TestFlattenAndSampler:
    def test_flatten_unflatten_roundtrip(self):
        arrays = [np.random.default_rng(0).random((3, 4)).astype(np.float32), np.arange(5, dtype=np.float32)]
        flat = flatten_arrays(arrays)
        restored = unflatten_array(flat, [a.shape for a in arrays])
        for original, back in zip(arrays, restored):
            np.testing.assert_allclose(original, back)

    def test_unflatten_size_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_array(np.zeros(5), [(2, 2)])

    def test_shard_batch_covers_everything(self):
        slices = [shard_batch(10, rank, 3) for rank in range(3)]
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert sorted(covered) == list(range(10))

    def test_shard_batch_even_split(self):
        s = shard_batch(8, 1, 4)
        assert s.stop - s.start == 2

    def test_distributed_sampler_partitions_indices(self):
        samplers = [DistributedSampler(100, rank=r, world_size=4, shuffle=False) for r in range(4)]
        all_indices = np.concatenate([s.indices() for s in samplers])
        assert len(all_indices) == 100
        assert set(all_indices.tolist()) == set(range(100))

    def test_distributed_sampler_epoch_changes_order(self):
        sampler = DistributedSampler(64, rank=0, world_size=2, shuffle=True, seed=3)
        sampler.set_epoch(0)
        first = sampler.indices().copy()
        sampler.set_epoch(1)
        second = sampler.indices()
        assert not np.array_equal(first, second)

    def test_distributed_sampler_pads_uneven(self):
        samplers = [DistributedSampler(10, rank=r, world_size=3, shuffle=False) for r in range(3)]
        lengths = [len(s.indices()) for s in samplers]
        assert len(set(lengths)) == 1  # every rank sees the same count

    def test_sampler_invalid_rank(self):
        with pytest.raises(ValueError):
            DistributedSampler(10, rank=5, world_size=2)
