"""The refresh queue on its own: plain callables as tasks, no preconditioner."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.kfac.factors import FactorRepr
from repro.kfac.kernels import STACK_EIGH_MAX_DIM
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

    def __call__(self, factors, repr_):
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
        queue.submit((key, factor(index), BIG) for index, key in enumerate(keys))
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
    diagonal = FactorRepr.diagonal(4)
    with blocked(queue):
        queue.submit([(("a", "a"), factor(1, SMALL), SMALL), (("b", "g"), factor(2), BIG),
                      (("c", "a"), factor(3, SMALL), SMALL), (("d", "a"), factor(4, diagonal), diagonal)])  # fmt: skip
        assert [task.keys for task in queue.tasks] == [[("a", "a"), ("c", "a")], [("b", "g")], [("d", "a")]]
        assert queue.take() == {("a", "a"): 1.0, ("c", "a"): 3.0, ("b", "g"): 2.0, ("d", "a"): 4.0}
    queue.close()


def test_take_names_the_failing_member_of_a_stack_and_returns_nothing():
    def fail(values):
        error = np.linalg.LinAlgError("did not converge")
        error.batch_index = values.index(7.0)
        return error

    queue = make_queue(Recorder(fail=fail))
    queue.submit([(("l0", "a"), factor(5, SMALL), SMALL), (("l3", "g"), factor(7, SMALL), SMALL)])
    with pytest.raises(np.linalg.LinAlgError, match=r"^eigendecomposition of the G factor of layer 'l3' failed") as raised:
        queue.take()
    assert raised.value.__cause__.batch_index == 1
    assert queue.tasks == [] and "kfac/eigen_solve_ms" not in queue.tracer.gauges()
    queue.close()


def test_a_failed_read_is_raised_by_take_naming_every_factor_it_read():
    def unreadable(factors, repr_):
        raise ValueError("contains infs or NaNs")

    queue = make_queue(unreadable)
    queue.submit([(("l0", "a"), factor(1), BIG)])
    with pytest.raises(ValueError, match=r"A factor of layer 'l0' failed: contains infs or NaNs"):
        queue.take()
    queue.close()


def test_cancel_returns_at_once_with_a_blocked_worker_and_cancels_every_queued_task():
    recorder = Recorder()
    queue = make_queue(recorder)
    with blocked(queue):
        queue.submit((("l", str(index)), factor(index), BIG) for index in range(5))
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
    queue.submit([(("l0", "a"), factor(1), BIG)])
    (worker,) = set(threading.enumerate()) - running
    queue.close()
    assert not worker.is_alive() and queue.tasks == []
    queue.close()
    assert not set(threading.enumerate()) - running


def test_a_second_submit_of_a_pending_key_is_a_no_op():
    recorder = Recorder()
    queue = make_queue(recorder)
    with blocked(queue):
        queue.submit([(("l0", "a"), factor(1), BIG)])
        queue.submit([(("l0", "a"), factor(9), BIG), (("l0", "g"), factor(2), BIG)])
        assert [task.keys for task in queue.tasks] == [[("l0", "a")], [("l0", "g")]]
        assert queue.take() == {("l0", "a"): 1.0, ("l0", "g"): 2.0}  # the first read stands
    queue.close()
