"""Tests for the asynchronous bucketed collective engine.

Covers the nonblocking communicator primitives (WorkHandle semantics on both
backends), the BucketManager's deterministic fusion, the OverlapScheduler's
fused broadcast/allreduce execution, each rank's fused-message accounting in
its registry, bucketed DDP gradient averaging, the analytic fused-vs-unfused
schedule model, and the acceptance criterion: all three distribution
strategies produce bitwise-identical preconditioned steps whatever the bucket
cap, from one message per tensor to everything fused, on the threaded backend.
"""

import dataclasses

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import (
    AllreduceSpec,
    BroadcastSpec,
    BucketManager,
    CompletedWork,
    DistributedDataParallel,
    OverlapScheduler,
    PerformanceModel,
    SingleProcessCommunicator,
    run_spmd,
)
from repro.experiments import paper_workload_spec
from repro.kfac import KFAC, KFACConfig, model_comm_schedule
from repro.models import MLP
from repro.tensor import Tensor

from counters import comm_counts, total_bytes, total_messages


def make_problem(seed=0, samples=64, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


class TestWorkHandles:
    def test_completed_work(self):
        handle = CompletedWork(np.arange(3))
        assert handle.is_done()
        np.testing.assert_array_equal(handle.wait(), np.arange(3))

    def test_default_nonblocking_falls_back_to_blocking(self):
        comm = SingleProcessCommunicator()
        handle = comm.iallreduce_average(np.ones(4))
        assert handle.is_done()
        np.testing.assert_array_equal(handle.wait(), np.ones(4))
        handle = comm.ibroadcast(np.ones(2), src=0)
        np.testing.assert_array_equal(handle.wait(), np.ones(2))

    def test_threaded_iallreduce_matches_blocking(self):
        def program(comm):
            handle = comm.iallreduce_average(np.full(8, float(comm.rank), dtype=np.float32))
            return handle.wait()

        for result in run_spmd(4, program):
            np.testing.assert_allclose(result, 1.5)

    def test_threaded_ibroadcast_matches_blocking(self):
        def program(comm):
            payload = np.arange(5, dtype=np.float32) if comm.rank == 1 else None
            return comm.ibroadcast(payload, src=1).wait()

        for result in run_spmd(3, program):
            np.testing.assert_allclose(result, np.arange(5))

    def test_handles_pipeline_multiple_collectives(self):
        """All handles can be posted before any is awaited (no deadlock)."""

        def program(comm):
            handles = [
                comm.iallreduce_average(np.full(4, float(comm.rank + step), dtype=np.float32))
                for step in range(5)
            ]
            return [h.wait()[0] for h in handles]

        results = run_spmd(3, program)
        assert results[0] == results[1] == results[2]
        np.testing.assert_allclose(results[0], [1.0 + s for s in range(5)])

    def test_wait_is_idempotent(self):
        def program(comm):
            handle = comm.iallreduce_average(np.ones(2, dtype=np.float32))
            first = handle.wait()
            second = handle.wait()
            return np.array_equal(first, second)

        assert all(run_spmd(2, program))

    def test_single_rank_group_completes_immediately(self):
        def program(comm):
            handle = comm.iallreduce_average(np.ones(2, dtype=np.float32), group=(comm.rank,))
            return handle.is_done()

        assert all(run_spmd(2, program))


class TestBucketManager:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            BucketManager(0.0)

    def test_single_bucket_under_cap(self):
        manager = BucketManager(1.0)
        buckets = manager.build([("a", (4, 4), np.float32), ("b", (2, 2), np.float32)])
        assert len(buckets) == 1
        assert [e.key for e in buckets[0].entries] == ["a", "b"]
        assert buckets[0].size == 20

    def test_cap_splits_buckets_deterministically(self):
        # 1 KiB cap; each tensor is 512 B -> two tensors per bucket.
        manager = BucketManager(1.0 / 1024)
        specs = [(f"t{i}", (128,), np.float32) for i in range(5)]
        buckets = manager.build(specs)
        assert [len(b) for b in buckets] == [2, 2, 1]
        assert [e.key for b in buckets for e in b.entries] == [f"t{i}" for i in range(5)]

    def test_oversized_tensor_gets_own_bucket(self):
        manager = BucketManager(1.0 / 1024)
        buckets = manager.build([("big", (1024,), np.float32), ("small", (4,), np.float32)])
        assert [len(b) for b in buckets] == [1, 1]

    def test_dtypes_never_mix(self):
        manager = BucketManager(10.0)
        buckets = manager.build(
            [("a", (4,), np.float32), ("b", (4,), np.float64), ("c", (4,), np.float32)]
        )
        assert len(buckets) == 2
        by_dtype = {b.dtype: [e.key for e in b.entries] for b in buckets}
        assert by_dtype[np.dtype(np.float32)] == ["a", "c"]
        assert by_dtype[np.dtype(np.float64)] == ["b"]

    def test_pack_unpack_roundtrip(self):
        manager = BucketManager(10.0)
        rng = np.random.default_rng(0)
        arrays = {"x": rng.random((3, 4)).astype(np.float32), "y": rng.random(7).astype(np.float32)}
        (bucket,) = manager.build([("x", (3, 4), np.float32), ("y", (7,), np.float32)])
        unpacked = bucket.unpack(bucket.pack(arrays.__getitem__))
        for key, original in arrays.items():
            np.testing.assert_array_equal(unpacked[key], original)

    def test_pack_size_mismatch_raises(self):
        manager = BucketManager(10.0)
        (bucket,) = manager.build([("x", (4,), np.float32)])
        with pytest.raises(ValueError):
            bucket.pack(lambda key: np.zeros(5, dtype=np.float32))


class TestOverlapScheduler:
    def test_fused_allreduce_matches_per_tensor(self):
        def program(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            rng = np.random.default_rng(comm.rank)
            tensors = {f"t{i}": rng.random(16).astype(np.float32) for i in range(6)}
            out = {}
            specs = [
                AllreduceSpec(key=key, payload=value, on_complete=lambda a, k=key: out.__setitem__(k, a))
                for key, value in tensors.items()
            ]
            scheduler.run_allreduces(specs)
            return out

        fused = run_spmd(4, program)

        def reference(comm):
            rng = np.random.default_rng(comm.rank)
            return {f"t{i}": comm.allreduce_average(rng.random(16).astype(np.float32)) for i in range(6)}

        unfused = run_spmd(4, reference)
        for rank in range(4):
            for key in fused[rank]:
                np.testing.assert_array_equal(fused[rank][key], unfused[rank][key])

    def test_fused_broadcast_delivers_source_bits(self):
        def program(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            out = {}
            specs = []
            for i, src in enumerate((0, 1, 1, 2)):
                payload = np.full(8, 100.0 * src + i, dtype=np.float32) if comm.rank == src else None
                specs.append(
                    BroadcastSpec(
                        key=f"b{i}",
                        src=src,
                        group=None,
                        shape=(8,),
                        dtype=np.dtype(np.float32),
                        payload=(lambda payload=payload: payload) if comm.rank == src else None,
                        on_complete=lambda a, k=f"b{i}": out.__setitem__(k, a),
                    )
                )
            scheduler.run_broadcasts(specs)
            return out

        for rank_out in run_spmd(3, program):
            for i, src in enumerate((0, 1, 1, 2)):
                np.testing.assert_allclose(rank_out[f"b{i}"], 100.0 * src + i)

    def test_subgroup_specs_skip_nonmembers(self):
        def program(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            group = (0, 1) if comm.rank < 2 else (2, 3)
            out = {}
            specs = [
                BroadcastSpec(
                    key=f"g{0 if g == (0, 1) else 1}",
                    src=g[0],
                    group=g,
                    shape=(4,),
                    dtype=np.dtype(np.float32),
                    payload=(lambda g=g: np.full(4, float(g[0]), dtype=np.float32)) if comm.rank == g[0] else None,
                    on_complete=lambda a, k=g: out.__setitem__(k, a),
                )
                for g in ((0, 1), (2, 3))
                if comm.rank in g
            ]
            scheduler.run_broadcasts(specs)
            (received,) = out.values()
            return float(received[0])

        results = run_spmd(4, program)
        assert results == [0.0, 0.0, 2.0, 2.0]

    def test_missing_source_payload_raises(self):
        comm = SingleProcessCommunicator()
        scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
        spec = BroadcastSpec(
            key="x", src=0, group=None, shape=(4,), dtype=np.dtype(np.float32), payload=None
        )
        with pytest.raises(ValueError, match="no payload"):
            scheduler.run_broadcasts([spec])

    def test_single_member_channels_post_nothing(self):
        """A group of one exchanges nothing: no communicator call, no logged
        message or byte, yet on_complete fires with the payload at drain()."""

        class CountingCommunicator(SingleProcessCommunicator):
            posted = 0

            def iallreduce_average(self, array, group=None, fused_count=1):
                self.posted += 1
                return super().iallreduce_average(array, group=group, fused_count=fused_count)

            def ibroadcast(self, array, src, group=None, fused_count=1):
                self.posted += 1
                return super().ibroadcast(array, src=src, group=group, fused_count=fused_count)

        def specs_for(rank, out):
            payload = np.arange(6, dtype=np.float32) + rank
            return (
                [BroadcastSpec(key="b", src=rank, group=(rank,), shape=(6,), dtype=payload.dtype,
                               payload=lambda: payload, on_complete=lambda a: out.__setitem__("b", a))],
                [AllreduceSpec(key="a", payload=payload, group=(rank,), on_complete=lambda a: out.__setitem__("a", a))],
            )

        comm, out = CountingCommunicator(), {}
        scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
        broadcasts, allreduces = specs_for(0, out)
        scheduler.post_broadcasts(broadcasts)
        scheduler.post_allreduces(allreduces)
        assert out == {}  # results arrive at drain(), like any other channel
        scheduler.drain()
        assert comm.posted == 0
        np.testing.assert_array_equal(out["b"], np.arange(6, dtype=np.float32))
        np.testing.assert_array_equal(out["a"], np.arange(6, dtype=np.float32))

        def program(comm):
            out = {}
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            broadcasts, allreduces = specs_for(comm.rank, out)
            scheduler.run_broadcasts(broadcasts)
            scheduler.run_allreduces(allreduces)
            assert out["b"][0] == out["a"][0] == comm.rank
            return comm.tracer

        for tracer in run_spmd(2, program):
            assert total_messages(tracer) == 0
            assert total_bytes(tracer) == 0


class TestFusedAccounting:
    """Each rank's registry counts fused vs unfused schedules (messages, bytes, tensors)."""

    def _run_world(self, world_size, program):
        """Every rank's ``{op: (messages, bytes, tensors)}`` after ``program`` ran on it."""

        def counted(comm):
            program(comm)
            return comm_counts(comm.tracer)

        return run_spmd(world_size, counted)

    def test_fused_bucket_reports_total_bytes_once(self):
        def fused(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            specs = [
                AllreduceSpec(key=f"t{i}", payload=np.ones(64, dtype=np.float32)) for i in range(5)
            ]
            scheduler.run_allreduces(specs)

        # 5 tensors x 64 float32 = 1280 bytes, moved in ONE message, counted by both members.
        for counts in self._run_world(2, fused):
            assert counts["allreduce"] == (1, 5 * 64 * 4, 5)

    def test_unfused_path_reports_one_message_per_tensor(self):
        def unfused(comm):
            for _ in range(5):
                comm.allreduce_average(np.ones(64, dtype=np.float32))

        for counts in self._run_world(2, unfused):
            assert counts["allreduce"] == (5, 5 * 64 * 4, 5)

    def test_fused_and_unfused_same_bytes_fewer_messages(self):
        def fused(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=25.0)
            scheduler.run_allreduces(
                [AllreduceSpec(key=f"t{i}", payload=np.ones(16, dtype=np.float32)) for i in range(8)]
            )

        def unfused(comm):
            for _ in range(8):
                comm.allreduce_average(np.ones(16, dtype=np.float32))

        for fused_counts, unfused_counts in zip(self._run_world(2, fused), self._run_world(2, unfused)):
            (fused_messages, fused_bytes, fused_tensors) = fused_counts["allreduce"]
            (unfused_messages, unfused_bytes, unfused_tensors) = unfused_counts["allreduce"]
            assert fused_bytes == unfused_bytes
            assert fused_tensors == unfused_tensors == 8
            assert fused_messages < unfused_messages

    def test_per_group_fused_collectives_charge_members_only(self):
        def fused(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=25.0)
            group = (0, 1) if comm.rank < 2 else (2, 3)
            if comm.rank in group:
                scheduler.run_broadcasts(
                    [
                        BroadcastSpec(
                            key=f"x{i}/{group[0]}",
                            src=group[0],
                            group=group,
                            shape=(32,),
                            dtype=np.dtype(np.float32),
                            payload=(lambda: np.ones(32, dtype=np.float32)) if comm.rank == group[0] else None,
                        )
                        for i in range(3)
                    ]
                )

        # One fused message per two-rank group, three tensors each: every rank
        # counts its own group's message, and no other.
        for counts in self._run_world(4, fused):
            assert counts["broadcast"] == (1, 3 * 32 * 4, 3)

    def test_blocking_and_nonblocking_collectives_count_alike(self):
        def program(comm):
            payload = np.arange(8, dtype=np.float64)
            comm.allreduce_average(payload)
            comm.iallreduce_average(payload, fused_count=3).wait()
            comm.broadcast(payload if comm.rank == 1 else None, src=1)
            handle = comm.ibroadcast(payload if comm.rank == 1 else None, src=1, fused_count=2)
            handle.wait()
            handle.wait()  # a second wait returns the cache and counts nothing

        for counts in self._run_world(3, program):
            assert counts == {"allreduce": (2, 2 * 64, 4), "broadcast": (2, 2 * 64, 3)}


class TestBucketedDDP:
    def test_bucketed_gradients_match_flat_path(self):
        x, y = make_problem()
        loss_fn = nn.CrossEntropyLoss()

        def run(bucket_cap_mb):
            def program(comm):
                model = MLP(6, [16, 8], 3, rng=np.random.default_rng(0))
                ddp = DistributedDataParallel(model, comm, bucket_cap_mb=bucket_cap_mb)
                n = x.shape[0] // comm.world_size
                sl = slice(comm.rank * n, (comm.rank + 1) * n)
                loss = loss_fn(model(Tensor(x[sl])), y[sl])
                loss.backward()
                ddp.sync_gradients()
                return np.concatenate([p.grad.ravel() for p in model.parameters()])

            return run_spmd(4, program)

        flat = run(25.0)  # every gradient in one fused buffer
        bucketed = run(0.0005)  # ~512 B cap forces several buckets
        for a, b in zip(flat, bucketed):
            np.testing.assert_array_equal(a, b)

    def test_bucketed_allreduce_records_fewer_messages_than_tensors(self):
        x, y = make_problem()
        loss_fn = nn.CrossEntropyLoss()
        def program(comm):
            model = MLP(6, [16, 8], 3, rng=np.random.default_rng(0))
            loss = loss_fn(model(Tensor(x[:16])), y[:16])
            loss.backward()
            DistributedDataParallel(model, comm, broadcast_initial=False, bucket_cap_mb=25.0).sync_gradients()
            return comm_counts(comm.tracer)

        # Six parameter tensors (3 layers x weight+bias) in one capped bucket.
        for counts in run_spmd(2, program):
            messages, _, tensors = counts["allreduce"]
            assert (messages, tensors) == (1, 6)


class TestGradientSeam:
    """``TensorBucket.pack`` fills with one cast-and-copy; averaged gradients are views of the drained bucket."""

    @staticmethod
    def model_with_gradients(rank=0, dtypes=(np.float32,)):
        model = MLP(6, [16, 8], 3, rng=np.random.default_rng(0))
        rng = np.random.default_rng(100 + rank)
        for index, param in enumerate(model.parameters()):
            dtype = dtypes[index % len(dtypes)]
            param.data = param.data.astype(dtype)
            param.grad = rng.standard_normal(param.data.shape).astype(dtype)
        return model

    def test_pack_casts_scales_once_and_leaves_the_payloads_alone(self):
        rng = np.random.default_rng(0)
        arrays = {
            "half": rng.standard_normal((3, 4)).astype(np.float16),
            "double": rng.standard_normal(7),
            "strided": rng.standard_normal((5, 6)).astype(np.float32)[:, ::2],  # not contiguous
            "scalar": np.float32(2.5).reshape(()),
        }
        kept = {key: array.copy() for key, array in arrays.items()}
        (bucket,) = BucketManager(10.0).build([(key, array.shape, np.float32) for key, array in arrays.items()])
        flat = bucket.pack(arrays.__getitem__, scale=0.25)
        assert flat.dtype == np.float32 and flat.flags.c_contiguous and flat.size == bucket.size
        for key, view in bucket.unpack(flat).items():
            np.testing.assert_array_equal(view, kept[key].astype(np.float32) * np.float32(0.25))
            np.testing.assert_array_equal(arrays[key], kept[key])
            assert not np.shares_memory(view, arrays[key])

    @pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "REPRO_SANITIZE"])
    def test_averaged_gradients_are_views_of_the_drained_bucket(self, sanitize):
        """World 2, accumulation scale 1/2: float32 views of one buffer, writable again once the token is released."""
        from repro.distributed import GradientAveragingSubscriber
        from repro.training import GradientPipeline

        def program(comm):
            model = self.model_with_gradients(comm.rank, dtypes=(np.float32, np.float64))
            before = [param.grad for param in model.parameters()]
            kept = [grad.copy() for grad in before]
            pipeline = GradientPipeline(model, comm=comm)
            pipeline.add_subscriber(GradientAveragingSubscriber(model))
            pipeline.flush(grad_scale=0.5)  # asserts the rank is drained when the sanitizer is on
            grads = [param.grad for param in model.parameters()]
            bases = {id(grad.base) for grad in grads}
            assert len(bases) == 1 and grads[0].base is not None  # one bucket is the gradient storage
            for grad, param, array, copy in zip(grads, model.parameters(), before, kept):
                assert grad.dtype == np.float32 and grad.shape == param.data.shape
                assert grad.flags.c_contiguous and grad.flags.writeable
                np.testing.assert_array_equal(array, copy)  # what param.grad was bound to is not written
            if sanitize:  # this rank's buffer token is released (the other rank may still be draining)
                mine = [key for key in comm.sanitizer.buffers.pending_keys() if key.startswith(f"rank{comm.rank}/")]
                assert mine == [] and comm.sanitizer.pending_handles(comm.rank) == 0
            return [grad.copy() for grad in grads], kept

        results = run_spmd(2, program, sanitize=sanitize)
        for index, averaged in enumerate(results[0][0]):
            np.testing.assert_array_equal(averaged, results[1][0][index])
            halves = [results[rank][1][index].astype(np.float32) * np.float32(0.5) for rank in range(2)]
            np.testing.assert_array_equal(averaged, (halves[0] + halves[1]) / np.float32(2.0))

    def test_mixed_dtype_schedule_on_one_rank_keeps_every_dtype(self):
        """A single rank under accumulation exchanges nothing: no fused buffer, each gradient scaled in its own dtype."""
        dtypes = (np.float32, np.float16, np.float64)
        model = self.model_with_gradients(dtypes=dtypes)
        before = [param.grad.copy() for param in model.parameters()]
        ddp = DistributedDataParallel(model, SingleProcessCommunicator(), broadcast_initial=False)
        specs = ddp.subscriber().specs(grad_scale=0.5, world_size=1)
        ddp.scheduler.run_allreduces([spec.to_allreduce() for spec in specs])
        grads = [param.grad for param in model.parameters()]
        assert len({id(grad.base) for grad in grads}) == len(grads)  # each its own array, not a view of a bucket
        for grad, original in zip(grads, before):
            assert grad.dtype == original.dtype and grad.flags.c_contiguous
            np.testing.assert_array_equal(grad, original * 0.5)

    def test_specs_of_different_scales_never_share_a_bucket(self):
        def program(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            got = {}
            ones = np.ones(4, dtype=np.float32)
            scheduler.run_allreduces(
                [
                    AllreduceSpec("a", ones, on_complete=lambda array: got.__setitem__("a", array), scale=0.5),
                    AllreduceSpec("b", ones, on_complete=lambda array: got.__setitem__("b", array)),
                    AllreduceSpec("c", ones, on_complete=lambda array: got.__setitem__("c", array), scale=0.5),
                ]
            )
            np.testing.assert_array_equal(got["a"], 0.5)
            np.testing.assert_array_equal(got["b"], 1.0)
            np.testing.assert_array_equal(got["c"], 0.5)
            assert got["a"].base is got["c"].base and got["b"].base is not got["a"].base
            np.testing.assert_array_equal(ones, 1.0)

        run_spmd(2, program)

    def test_a_group_of_one_hands_each_payload_to_its_callback_without_a_buffer(self):
        """No fused buffer at world 1: the callback gets the payload itself, or its scaled / cast product."""
        scheduler = OverlapScheduler(SingleProcessCommunicator(), bucket_cap_mb=1.0)
        got = {}
        ones = np.ones(4, dtype=np.float32)
        wide = np.arange(6, dtype=np.float64)
        scheduler.post_allreduces(
            [
                AllreduceSpec("a", ones, on_complete=lambda array: got.__setitem__("a", array), scale=0.5),
                AllreduceSpec("b", ones, on_complete=lambda array: got.__setitem__("b", array)),
            ]
        )
        scheduler.post_broadcasts(
            [BroadcastSpec("c", 0, None, (2, 3), np.float32, lambda: wide, lambda array: got.__setitem__("c", array))]
        )
        assert got == {}  # callbacks fire at drain(), in posting order
        scheduler.drain()
        assert list(got) == ["a", "b", "c"]
        assert got["b"] is ones
        np.testing.assert_array_equal(got["a"], 0.5)
        np.testing.assert_array_equal(ones, 1.0)
        assert got["c"].dtype == np.float32 and got["c"].shape == (2, 3)
        np.testing.assert_array_equal(got["c"].ravel(), wide)
        scheduler.post_allreduces([AllreduceSpec("d", ones, on_complete=lambda array: got.__setitem__("d", array))])
        scheduler.discard()
        scheduler.drain()
        assert "d" not in got


#: A cap smaller than any tensor: every tensor travels in a message of its own
#: (the schedule the retired blocking per-tensor path used to post).
ALONE_CAP_MB = 1e-6
DEFAULT_CAP_MB = KFACConfig().bucket_cap_mb


class TestKFACOverlapBitwise:
    """Acceptance: the bucket cap never changes a bit — one message per tensor
    and the fused 25 MB default produce identical gradients on every rank."""

    WORLD = 4
    STEPS = 3

    def _train(self, frac, bucket_cap_mb, world=None):
        world_size = world or self.WORLD
        x, y = make_problem(seed=11)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
            ddp = DistributedDataParallel(model, comm)
            config = KFACConfig(
                grad_worker_frac=frac,
                factor_update_freq=1,
                inv_update_freq=1,
                bucket_cap_mb=bucket_cap_mb,
            )
            pre = KFAC.from_config(model, config, comm=comm)
            n = x.shape[0] // comm.world_size
            sl = slice(comm.rank * n, (comm.rank + 1) * n)
            for _ in range(self.STEPS):
                for p in model.parameters():
                    p.grad = None
                loss = loss_fn(model(Tensor(x[sl])), y[sl])
                loss.backward()
                ddp.sync_gradients()
                pre.step()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        return run_spmd(world_size, program)

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    def test_all_strategies_bitwise_identical(self, frac):
        alone = self._train(frac, ALONE_CAP_MB)
        for cap in (0.001, DEFAULT_CAP_MB):
            for rank, (a, b) in enumerate(zip(alone, self._train(frac, cap))):
                np.testing.assert_array_equal(a, b, err_msg=f"rank {rank} diverged under frac={frac}, cap={cap}")

    def test_overlap_single_process(self):
        x, y = make_problem()
        loss_fn = nn.CrossEntropyLoss()

        def run(bucket_cap_mb):
            model = MLP(6, [12], 3, rng=np.random.default_rng(0))
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb=bucket_cap_mb)
            loss = loss_fn(model(Tensor(x[:32])), y[:32])
            loss.backward()
            pre.step()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        np.testing.assert_array_equal(run(ALONE_CAP_MB), run(DEFAULT_CAP_MB))

    def test_overlap_issues_fewer_messages_same_bytes(self):
        x, y = make_problem(seed=3)
        loss_fn = nn.CrossEntropyLoss()

        def run(bucket_cap_mb):
            def program(comm):
                model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
                ddp = DistributedDataParallel(model, comm, bucket_cap_mb=bucket_cap_mb)
                pre = KFAC(
                    model,
                    factor_update_freq=1,
                    inv_update_freq=1,
                    grad_worker_frac=0.5,
                    bucket_cap_mb=bucket_cap_mb,
                    comm=comm,
                )
                n = x.shape[0] // comm.world_size
                sl = slice(comm.rank * n, (comm.rank + 1) * n)
                for p in model.parameters():
                    p.grad = None
                loss = loss_fn(model(Tensor(x[sl])), y[sl])
                loss.backward()
                ddp.sync_gradients()
                pre.step()
                return comm_counts(comm.tracer)

            return run_spmd(self.WORLD, program)

        for alone, fused in zip(run(ALONE_CAP_MB), run(DEFAULT_CAP_MB)):
            def total(counts, index):
                return sum(entry[index] for entry in counts.values())

            assert total(fused, 1) == total(alone, 1)  # bytes
            assert total(fused, 2) == total(alone, 0) == total(alone, 2)  # tensors; alone: one per message
            assert total(fused, 0) < total(alone, 0)  # messages


class TestConfigKnobs:
    def test_defaults(self):
        assert KFACConfig().bucket_cap_mb == 25.0

    def test_invalid_bucket_cap(self):
        with pytest.raises(ValueError):
            KFACConfig(bucket_cap_mb=0.0)

    def test_round_trips_through_dict(self):
        config = KFACConfig(bucket_cap_mb=4.0)
        restored = KFACConfig.from_dict(config.to_dict())
        assert restored.bucket_cap_mb == 4.0

    def test_kfac_scheduler_uses_configured_cap(self):
        model = MLP(4, [6], 2, rng=np.random.default_rng(0))
        assert KFAC(model).scheduler.buckets.bucket_cap_mb == 25.0
        assert KFAC(model, bucket_cap_mb=2.0).scheduler.buckets.bucket_cap_mb == 2.0


class TestCommScheduleModel:
    def test_bert_sized_fusion_saves_messages_and_time(self):
        spec = paper_workload_spec("bert_large")
        alone = dataclasses.replace(spec, config=spec.config.replace(bucket_cap_mb=1e-6))  # a cap below any tensor
        for world_size in (8, 16):
            for frac in (1.0 / world_size, 0.5, 1.0):
                unfused = model_comm_schedule(alone, world_size, frac)
                fused = model_comm_schedule(spec, world_size, frac)
                assert fused.comm_bytes_per_update == unfused.comm_bytes_per_update
                assert fused.messages_per_update < unfused.messages_per_update
                assert fused.iteration_time < unfused.iteration_time

    def test_world_of_one_has_no_messages(self):
        spec = paper_workload_spec("resnet18")
        schedule = model_comm_schedule(spec, 1, 1.0)
        assert schedule.messages_per_update == 0
        assert schedule.comm_bytes_per_update == 0

    def test_one_message_costs_less_than_ten_at_the_same_bytes(self):
        perf = PerformanceModel()
        # Same bytes in one message cost less than in ten: what a fused bucket saves is nine latency terms.
        assert perf.allreduce_time(1e6, 8) < 10 * perf.allreduce_time(1e5, 8)
        assert perf.broadcast_time(1e6, 8) < 10 * perf.broadcast_time(1e5, 8)
        assert 10 * perf.allreduce_time(1e5, 8) - perf.allreduce_time(1e6, 8) == pytest.approx(
            9 * 2.0 * 7 * perf.network.latency
        )
