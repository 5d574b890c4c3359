"""The refresh queue on its own: plain callables (and the kernel backend's tasks) as tasks, no preconditioner."""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.kfac.factors import FactorRepr
from repro.kfac.kernels import STACK_EIGH_MAX_DIM, KernelBackend
from repro.kfac.refresh import RefreshQueue
from repro.observability import Tracer

BIG = FactorRepr.dense(STACK_EIGH_MAX_DIM + 1)  # one task per factor
SMALL = FactorRepr.dense(STACK_EIGH_MAX_DIM)  # one stacked task per dimension and dtype


def factor(value, repr_=BIG):
    return np.full(repr_.dim, value, dtype=np.float32)


class Recorder:
    """A task factory whose solves return each factor's first element and log ``(first elements, thread)``."""

    def __init__(self, fail=None):
        self.solved, self.fail = [], fail

    def __call__(self, factors, repr_, dampings):
        values = [float(f[0]) for f in factors]  # read on the submitting thread

        def solve():
            self.solved.append((values, threading.current_thread().name))
            if self.fail is not None:
                raise self.fail(values)
            return values

        return solve


@contextlib.contextmanager
def blocked(queue):
    """Occupy ``queue``'s worker until the block exits: every task submitted meanwhile waits behind it."""
    release = threading.Event()
    blocker = queue.worker.submit(release.wait, 10)
    try:
        yield
    finally:
        release.set()
        blocker.result(timeout=10)


def make_queue(task):
    tracer = Tracer()
    tracer.enabled = True
    return RefreshQueue(task, tracer, name="refresh-test")


def test_the_caller_solves_the_unstarted_tasks_in_submission_order():
    recorder = Recorder()
    queue = make_queue(recorder)
    keys = [("l2", "g"), ("l0", "a"), ("l1", "a")]
    with blocked(queue):
        queue.submit((key, factor(index), BIG, None) for index, key in enumerate(keys))
        results = queue.take(step=4)
    assert list(results) == keys and list(results.values()) == [0.0, 1.0, 2.0]
    here = threading.current_thread().name
    assert recorder.solved == [([0.0], here), ([1.0], here), ([2.0], here)]
    gauges = queue.tracer.gauges()
    assert gauges["kfac/eigen_caller_ms"] == gauges["kfac/eigen_solve_ms"] > 0.0
    (dispatch,) = queue.tracer.instants
    assert (dispatch.name, dispatch.attrs["step"], dispatch.attrs["batch_sizes"]) == ("kfac/kernel_dispatch", 4, [1, 1, 1])
    assert queue.tasks == []
    queue.close()


def test_small_dense_factors_are_one_stacked_task_and_the_others_one_task_each():
    recorder = Recorder()
    queue = make_queue(recorder)
    diagonal, blocks = FactorRepr.diagonal(4), FactorRepr(2 * STACK_EIGH_MAX_DIM, STACK_EIGH_MAX_DIM)
    with blocked(queue):
        queue.submit([(("a", "a"), factor(1, SMALL), SMALL, None), (("b", "g"), factor(2), BIG, None),
                      (("c", "a"), factor(3, SMALL), SMALL, None), (("d", "a"), factor(4, diagonal), diagonal, None),
                      (("e", "g"), factor(5, blocks), blocks, None), (("f", "g"), factor(6, blocks), blocks, None)])  # fmt: skip
        # Equal small blocks stack like equal small dense factors; blocks of one stay a task each.
        assert [task.keys for task in queue.tasks] == [
            [("a", "a"), ("c", "a")], [("b", "g")], [("d", "a")], [("e", "g"), ("f", "g")]
        ]
        assert queue.take() == {
            ("a", "a"): 1.0, ("c", "a"): 3.0, ("b", "g"): 2.0, ("d", "a"): 4.0, ("e", "g"): 5.0, ("f", "g"): 6.0
        }
    queue.close()


def test_take_names_the_failing_member_of_a_stack_and_returns_nothing():
    def fail(values):
        error = np.linalg.LinAlgError("did not converge")
        error.batch_index = values.index(7.0)
        return error

    queue = make_queue(Recorder(fail=fail))
    queue.submit([(("l0", "a"), factor(5, SMALL), SMALL, None), (("l3", "g"), factor(7, SMALL), SMALL, None)])
    with pytest.raises(np.linalg.LinAlgError, match=r"^eigendecomposition of the G factor of layer 'l3' failed") as raised:
        queue.take()
    assert raised.value.__cause__.batch_index == 1
    assert queue.tasks == [] and "kfac/eigen_solve_ms" not in queue.tracer.gauges()
    queue.close()


def test_a_failed_read_is_raised_by_take_naming_every_factor_it_read():
    def unreadable(factors, repr_, dampings):
        raise ValueError("contains infs or NaNs")

    queue = make_queue(unreadable)
    queue.submit([(("l0", "a"), factor(1), BIG, None)])
    with pytest.raises(ValueError, match=r"A factor of layer 'l0' failed: contains infs or NaNs"):
        queue.take()
    queue.close()


def test_cancel_returns_at_once_with_a_blocked_worker_and_cancels_every_queued_task():
    recorder = Recorder()
    queue = make_queue(recorder)
    with blocked(queue):
        queue.submit((("l", str(index)), factor(index), BIG, None) for index in range(5))
        futures = [task.future for task in queue.tasks]
        start = time.perf_counter()
        queue.cancel()
        assert time.perf_counter() - start < 1.0
    assert all(future.cancelled() for future in futures) and queue.tasks == []
    assert recorder.solved == [] and queue.take() == {}
    queue.close()


def test_close_leaves_no_live_thread_and_is_idempotent():
    queue = make_queue(Recorder())
    running = set(threading.enumerate())
    queue.submit([(("l0", "a"), factor(1), BIG, None)])
    (worker,) = set(threading.enumerate()) - running
    queue.close()
    assert not worker.is_alive() and queue.tasks == []
    queue.close()
    assert not set(threading.enumerate()) - running


def test_a_second_submit_of_a_pending_key_is_a_no_op():
    recorder = Recorder()
    queue = make_queue(recorder)
    with blocked(queue):
        queue.submit([(("l0", "a"), factor(1), BIG, None)])
        queue.submit([(("l0", "a"), factor(9), BIG, None), (("l0", "g"), factor(2), BIG, None)])
        assert [task.keys for task in queue.tasks] == [[("l0", "a")], [("l0", "g")]]
        assert queue.take() == {("l0", "a"): 1.0, ("l0", "g"): 2.0}  # the first read stands
    queue.close()


def test_inverses_stack_apart_from_decompositions_and_carry_one_damping_each():
    seen = []

    def task(factors, repr_, dampings):
        seen.append(dampings)
        return lambda: [float(f[0]) for f in factors]

    queue = make_queue(task)
    with blocked(queue):
        queue.submit([(("a", "a"), factor(1, SMALL), SMALL, 0.5), (("b", "a"), factor(2, SMALL), SMALL, None),
                      (("c", "g"), factor(3, SMALL), SMALL, 0.25)])  # fmt: skip
        assert [task.keys for task in queue.tasks] == [[("a", "a"), ("c", "g")], [("b", "a")]]
        assert queue.take() == {("a", "a"): 1.0, ("c", "g"): 3.0, ("b", "a"): 2.0}
    assert seen == [[0.5, 0.25], None]
    queue.close()


def test_a_failed_inverse_is_named_as_one():
    queue = make_queue(Recorder(fail=lambda values: np.linalg.LinAlgError("not positive definite")))
    queue.submit([(("l0", "g"), factor(1), BIG, 0.1)])
    with pytest.raises(np.linalg.LinAlgError, match=r"^damped inverse of the G factor of layer 'l0' failed"):
        queue.take()
    queue.close()


@pytest.mark.parametrize("inverse", [True, False], ids=["inverse", "eigen"])
def test_a_task_the_worker_starts_after_the_fold_still_solves_the_pre_fold_factor(inverse):
    """The queue keeps references, not copies: the fold makes a new running factor, so the solve the worker
    starts once the step has folded is bitwise the solve of the factor as it was submitted."""
    backend = KernelBackend()

    def task(factors, repr_, dampings):
        if dampings is None:
            return backend.eigen_task(factors, repr_)
        return backend.inverse_task(factors, repr_, dampings)

    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2 * BIG.dim, BIG.dim)).astype(np.float32)
    running = BIG.from_dense(rows.T @ rows / np.float32(rows.shape[0]))
    published = running.copy()
    damping = 0.01 if inverse else None
    queue = make_queue(task)
    with blocked(queue):
        queue.submit([(("l0", "a"), running, BIG, damping)])
        window = BIG.from_dense(np.eye(BIG.dim, dtype=np.float32))
        folded = backend.fused_decay_update(running, window, 0.9, np.float32)
    queue.tasks[0].future.result(timeout=10)  # the worker solved it, after the fold
    result = queue.take()[("l0", "a")]
    assert not np.array_equal(folded, published) and running.tobytes() == published.tobytes()
    (alone,) = task([published], BIG, None if damping is None else [damping])()
    if inverse:
        assert result.tobytes() == alone.tobytes()
    else:
        assert result.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert result.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
    queue.close()


def test_folds_racing_the_worker_never_change_what_it_solves():
    """Stress: with a short switch interval the worker solves while the step thread folds over and over; every
    result is bitwise the solve of the factor as it was submitted."""
    backend, rng = KernelBackend(), np.random.default_rng(5)
    interval = sys.getswitchinterval()
    queue = make_queue(lambda factors, repr_, dampings: backend.inverse_task(factors, repr_, dampings))
    try:
        sys.setswitchinterval(1e-6)
        rows = rng.standard_normal((3 * BIG.dim, BIG.dim)).astype(np.float32)
        running = BIG.from_dense(rows.T @ rows / np.float32(rows.shape[0]))
        deadline = time.perf_counter() + 5.0
        for _ in range(20):
            submitted = running.copy()
            queue.submit([(("l0", "a"), running, BIG, 0.01)])
            for _ in range(10):  # folds while the worker solves
                window = BIG.from_dense(np.eye(BIG.dim, dtype=np.float32) * np.float32(rng.random()))
                running = backend.fused_decay_update(running, window, 0.9, np.float32)
            (expected,) = backend.inverse_task([submitted], BIG, [0.01])()
            assert queue.take()[("l0", "a")].tobytes() == expected.tobytes()
            assert time.perf_counter() < deadline
    finally:
        sys.setswitchinterval(interval)
        queue.close()
