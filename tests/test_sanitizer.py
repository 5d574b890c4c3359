"""Tests for the runtime collective sanitizer (REPRO_SANITIZE=1).

Fault-injection coverage: deliberately rank-divergent schedules must be
*detected and raised* (never deadlocked or timed out), in-flight bucket
buffers are frozen and fingerprinted (use/mutate-before-finish races are
flagged with the posting call-site), lost handles are caught at flush, and
the hardened WorkHandle contract (idempotent finish, result-before-finish
raises, GC-without-finish warns).  Sanitizer-off runs must stay bitwise
identical to sanitizer-on runs — the checker never touches numerics.
"""

import gc
import warnings

import numpy as np
import pytest

from repro.analysis import BufferAccessChecker, SanitizerError
from repro.analysis.sanitizer import sanitize_enabled
from repro.distributed import (
    AllreduceSpec,
    OverlapScheduler,
    ThreadedWorld,
    run_spmd,
)
from repro.distributed.backend import CompletedWork, WorkHandleError


def spmd_failure(excinfo) -> SanitizerError:
    """Unwrap the SanitizerError behind run_spmd's rank-failure RuntimeError."""
    cause = excinfo.value.__cause__
    assert isinstance(cause, SanitizerError), f"expected SanitizerError, got {cause!r}"
    return cause


class TestScheduleDivergence:
    def test_divergent_shapes_detected_not_deadlocked(self):
        def program(comm):
            size = 4 if comm.rank == 0 else 8  # rank-divergent payload shape
            return comm.allreduce_average(np.ones(size, dtype=np.float32))

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, program, sanitize=True)
        error = spmd_failure(excinfo)
        assert error.kind == "schedule-divergence"
        assert "dtype/shape" in str(error)

    def test_divergent_ops_detected_not_deadlocked(self):
        # Without the sanitizer this deadlocks until the world timeout: the
        # two ranks rendezvous on different slots and wait for peers that
        # never arrive.  The sanitizer pairs the posts by (group, seq) and
        # raises on the op mismatch immediately.
        def program(comm):
            x = np.ones(4, dtype=np.float32)
            if comm.rank == 0:  # spmd-ignore: SPMD101 - fault injection
                return comm.allreduce_average(x)
            return comm.broadcast(x, src=1)

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, program, sanitize=True)
        error = spmd_failure(excinfo)
        assert error.kind == "schedule-divergence"
        assert "op/src/fusion" in str(error)

    def test_all_ranks_raise_not_just_detector(self):
        # The poisoned world must wake the non-detecting rank too: it is
        # blocked inside finish_collective and would otherwise time out.
        outcomes = {}

        def program(comm):
            try:
                size = 4 if comm.rank == 0 else 8
                comm.allreduce_average(np.ones(size, dtype=np.float32))
                outcomes[comm.rank] = None
            except SanitizerError as error:
                outcomes[comm.rank] = error.kind
                raise

        with pytest.raises(RuntimeError):
            run_spmd(2, program, sanitize=True)
        assert outcomes == {0: "schedule-divergence", 1: "schedule-divergence"}

    def test_divergent_counts_detected_at_barrier(self):
        def program(comm):
            handles = [comm.iallreduce_average(np.ones(2, dtype=np.float32))]
            if comm.rank == 0:  # spmd-ignore: SPMD101 - fault injection
                handles.append(comm.iallreduce_average(np.ones(2, dtype=np.float32)))
            comm.barrier()
            return [h.wait() for h in handles]

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, program, sanitize=True)
        error = spmd_failure(excinfo)
        assert error.kind == "schedule-divergence"
        assert "barrier" in str(error)

    def test_subgroup_counts_compared_within_group_only(self):
        # Ranks outside a subgroup legitimately post nothing on it; the
        # barrier check must not flag that as divergence.
        def program(comm):
            if comm.rank in (0, 1):  # spmd-ignore: SPMD101 - subgroup schedule
                comm.allreduce_average(np.ones(3, dtype=np.float32), group=(0, 1))
            comm.barrier()
            return True

        assert all(run_spmd(4, program, sanitize=True))

    def test_plan_divergence_via_check_consistent(self):
        def program(comm):
            comm.sanitizer.check_consistent(comm.rank, "plan:0", ("layer", comm.rank % 2))
            return True

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, program, sanitize=True)
        error = spmd_failure(excinfo)
        assert error.kind == "plan-divergence"
        assert "plan:0" in str(error)

    def test_rank_dependent_distribution_plan_is_named_at_step_zero(self):
        """A rank whose config places the work differently (here rank 1 alone runs MEM-OPT while the
        others run HYBRID-OPT) would leave the other ranks waiting on broadcasts nobody posts; the plan
        is data, so its digest rides the step-0 consistency check instead."""
        import time

        from repro import nn
        from repro.kfac import KFAC
        from repro.models import MLP
        from repro.tensor import Tensor

        outcomes = {}
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((8, 6)).astype(np.float32), rng.integers(0, 3, 8)

        def program(comm):
            model = MLP(6, [16, 8], 3, rng=np.random.default_rng(5))
            pre = KFAC(model, grad_worker_frac=0.25 if comm.rank == 1 else 0.5, comm=comm)
            nn.CrossEntropyLoss()(model(Tensor(x)), y).backward()
            try:
                pre.step(lr=0.1)
            except SanitizerError as error:
                outcomes[comm.rank] = (error.kind, "kfac/reprs" in str(error))
                raise

        start = time.monotonic()
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(4, program, sanitize=True)
        assert time.monotonic() - start < 30.0  # named well inside the 60 s collective timeout
        assert spmd_failure(excinfo).kind == "plan-divergence"
        assert outcomes == {rank: ("plan-divergence", True) for rank in range(4)}

    def test_consistent_plans_pass(self):
        def program(comm):
            for step in range(3):
                comm.sanitizer.check_consistent(comm.rank, f"plan:{step}", ("layer", step))
            return True

        assert all(run_spmd(3, program, sanitize=True))

    def test_violation_emits_sanitize_instant_on_tracer(self):
        """The world attaches each communicator's tracer; enabling it is all a rank does."""
        tracers = {}

        def program(comm):
            comm.tracer.enabled = True
            tracers[comm.rank] = comm.tracer
            size = 4 if comm.rank == 0 else 8
            comm.allreduce_average(np.ones(size, dtype=np.float32))

        with pytest.raises(RuntimeError):
            run_spmd(2, program, sanitize=True)
        names = [i.name for tracer in tracers.values() for i in tracer.instants]
        assert "sanitize/violation" in names


class TestBufferAccessChecker:
    def test_use_before_finish_flagged_with_call_site(self):
        checker = BufferAccessChecker()
        buffer = np.zeros(8, dtype=np.float32)
        checker.stamp("allreduce:grad/0", buffer)
        with pytest.raises(SanitizerError) as excinfo:
            checker.assert_finished("allreduce:grad/0")
        error = excinfo.value
        assert error.kind == "use-before-finish"
        # Both the posting site and the reading site name this test file.
        assert "test_sanitizer.py" in str(error)
        assert "test_sanitizer.py" in error.details["posted_at"]

    def test_stamped_buffer_is_frozen_against_direct_writes(self):
        checker = BufferAccessChecker()
        buffer = np.zeros(4, dtype=np.float32)
        token = checker.stamp("b", buffer)
        with pytest.raises(ValueError):
            buffer[0] = 1.0  # numpy blocks the write: the collective owns it
        checker.release(token)
        buffer[0] = 1.0  # release() restores writability

    def test_mutation_through_alias_detected_at_release(self):
        checker = BufferAccessChecker()
        base = np.zeros(8, dtype=np.float32)
        view = base[:4]
        token = checker.stamp("allreduce:bucket/0", view)
        base[1] = 7.0  # race: write through an alias the freeze cannot reach
        with pytest.raises(SanitizerError) as excinfo:
            checker.release(token)
        error = excinfo.value
        assert error.kind == "buffer-race"
        assert "test_sanitizer.py" in str(error)

    def test_clean_stamp_release_cycle(self):
        checker = BufferAccessChecker()
        buffer = np.arange(6, dtype=np.float64)
        token = checker.stamp("k", buffer)
        assert checker.pending_keys() == ["k"]
        checker.release(token)
        assert checker.pending_keys() == []
        checker.release(token)  # idempotent, like WorkHandle.finish()

    def test_scheduler_stamps_inflight_buckets(self):
        def program(comm):
            scheduler = OverlapScheduler(comm, bucket_cap_mb=1.0)
            specs = [
                AllreduceSpec(f"g{i}", (4,), np.float32, lambda: np.full(4, float(comm.rank), dtype=np.float32))
                for i in range(3)
            ]
            scheduler.post_allreduces(specs)

            def mine():
                # The checker is world-shared; look only at this rank's stamps.
                prefix = f"rank{comm.rank}/"
                return [k for k in comm.sanitizer.buffers.pending_keys() if k.startswith(prefix)]

            pending = mine()
            scheduler.drain()
            return comm.rank, pending, mine()

        for rank, pending, drained in run_spmd(2, program, sanitize=True):
            assert pending == [f"rank{rank}/allreduce:g0+2"]
            assert drained == []


class TestLostComm:
    def test_assert_drained_flags_unfinished_handles(self):
        def program(comm):
            handle = comm.iallreduce_average(np.ones(2, dtype=np.float32))
            try:
                comm.sanitizer.assert_drained(comm.rank, where="test/flush")
            finally:
                handle.wait()
            return True

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, program, sanitize=True)
        error = spmd_failure(excinfo)
        assert error.kind == "lost-comm"
        assert "test/flush" in str(error)

    def test_assert_drained_passes_when_finished(self):
        def program(comm):
            comm.iallreduce_average(np.ones(2, dtype=np.float32)).finish()  # spmd-ignore: SPMD102
            comm.sanitizer.assert_drained(comm.rank, where="test/flush")
            return True

        assert all(run_spmd(2, program, sanitize=True))


class TestWorkHandleHardening:
    def test_finish_is_idempotent(self):
        def program(comm):
            handle = comm.iallreduce_average(np.full(4, float(comm.rank), dtype=np.float32))
            first = handle.finish()
            second = handle.finish()
            return np.array_equal(first, second) and handle.finished

        assert all(run_spmd(2, program, sanitize=True))

    def test_result_before_finish_raises(self):
        world = ThreadedWorld(2, sanitize=True)
        comm0 = world.communicator(0)
        handle = comm0.iallreduce_average(np.ones(3, dtype=np.float32))
        with pytest.raises(WorkHandleError, match="before finish"):
            _ = handle.result
        world.communicator(1).iallreduce_average(np.ones(3, dtype=np.float32)).finish()
        handle.finish()
        np.testing.assert_allclose(handle.result, np.ones(3))

    def test_completed_work_result_available_immediately(self):
        handle = CompletedWork(np.arange(3))
        assert handle.finished
        np.testing.assert_array_equal(handle.result, np.arange(3))
        np.testing.assert_array_equal(handle.finish(), np.arange(3))

    def test_gc_of_unfinished_handle_warns_under_sanitize(self):
        world = ThreadedWorld(2, sanitize=True)
        comm0 = world.communicator(0)
        handle = comm0.iallreduce_average(np.ones(2, dtype=np.float32))  # spmd-ignore: SPMD102
        with pytest.warns(ResourceWarning, match="without finish"):
            del handle
            gc.collect()
        assert world.sanitizer.leaked_handles == 1

    def test_gc_of_finished_handle_does_not_warn(self):
        def program(comm):
            handle = comm.iallreduce_average(np.ones(2, dtype=np.float32))
            handle.finish()
            del handle
            gc.collect()
            return True

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert all(run_spmd(2, program, sanitize=True))


class TestSanitizerNeutrality:
    """Sanitize on vs off must be bitwise identical (checks only, no numerics)."""

    @staticmethod
    def _training_results(sanitize):
        def program(comm):
            rng = np.random.default_rng(7 + comm.rank)
            scheduler = OverlapScheduler(comm, bucket_cap_mb=0.001)
            out = {}
            specs = [
                AllreduceSpec(
                    f"t{i}",
                    (32,),
                    np.float32,
                    payload=lambda array=rng.standard_normal(32).astype(np.float32): array,
                    on_complete=lambda result, i=i: out.__setitem__(i, result.copy()),
                )
                for i in range(6)
            ]
            scheduler.run_allreduces(specs)
            comm.barrier()
            return [out[i] for i in range(6)]

        return run_spmd(2, program, sanitize=sanitize)

    def test_overlap_schedule_bitwise_identical(self):
        plain = self._training_results(sanitize=False)
        sanitized = self._training_results(sanitize=True)
        for rank_plain, rank_sanitized in zip(plain, sanitized):
            for a, b in zip(rank_plain, rank_sanitized):
                np.testing.assert_array_equal(a, b)

    def test_env_toggle_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()

    def test_world_defaults_follow_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert ThreadedWorld(1).sanitizer is not None
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert ThreadedWorld(1).sanitizer is None
        assert ThreadedWorld(1, sanitize=True).sanitizer is not None


class TestTimeoutDiagnostics:
    def test_timeout_reports_pending_slots(self):
        # One rank posts, the other never shows up: the sanitizer turns the
        # raw timeout into a diagnosis of what was left unmatched.
        world = ThreadedWorld(2, timeout=0.2, sanitize=True)
        comm0 = world.communicator(0)
        handle = comm0.iallreduce_average(np.ones(2, dtype=np.float32))
        with pytest.raises(SanitizerError) as excinfo:
            handle.wait()
        error = excinfo.value
        assert error.kind == "collective-timeout"
        assert error.details["unmatched_slots"]
