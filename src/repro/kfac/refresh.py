"""The refresh queue: one rank's factor solves and statistics products, run on its worker thread or on the step's own.

A refresh decomposes -- or, on the default ``inverse`` path, inverts -- the
running factors as they stood when its step began (paper section 3.4, stage
2), while forward and backward still run; the layer hooks' statistics
products of factors at least :data:`MIN_DEFERRED_BLOCK` wide (stage 1,
:meth:`RefreshQueue.defer`) go ahead of every solve not started, as the step's
fold needs them first.  :class:`RefreshQueue` alone decides which thread runs
what, and when.  A task is any zero-argument
callable, such as :meth:`~repro.kfac.kernels.KernelBackend.eigen_task`'s or
:meth:`~repro.kfac.kernels.KernelBackend.inverse_task`'s; its result does not
depend on the thread that runs it, so neither does the trajectory.  A task
holds references to its inputs, not copies, until it has run or is dropped: a
fold never writes a published running factor (it makes a new array), so a
task the worker starts after its step's fold still solves the factors the step
began with.  The worker is one thread looping over two lines, products ahead of
solves; a task the step takes itself leaves its line, so nothing a step queued
outlives it.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, wait
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .factors import FactorRepr
from .kernels import STACK_EIGH_MAX_DIM

__all__ = ["RefreshQueue", "MIN_DEFERRED_BLOCK"]

#: Narrowest factor block whose statistics products the worker forms; a narrower factor's are formed in its
#: hook.  Measured crossover on two cores: handing the worker a 0.1-0.5 ms product (the conv factors of
#: ``cifar_resnet``, at most 144 wide) costs the step more than forming it, while a 512-wide one (BERT's FFN
#: factors, 2-3 ms) still hides behind forward and backward.
MIN_DEFERRED_BLOCK = 256


def _work(ready: threading.Condition, lines: Tuple[deque, deque]) -> None:
    """The worker thread: run the oldest queued product, else the oldest solve, until it meets a ``None``."""
    while True:
        with ready:
            ready.wait_for(lambda: lines[0] or lines[1])
            task = (lines[0] or lines[1]).popleft()
            if task is None:
                return
            task.future.set_running_or_notify_cancel()
        task.future.set_result(task.run())


def _enqueue(ready: threading.Condition, line: deque, task: Optional["_Task"]) -> None:
    """Append ``task`` to the worker's ``line`` and wake the worker."""
    with ready:
        line.append(task)
        ready.notify()


@dataclasses.dataclass(eq=False)
class _Task:
    keys: List[Hashable]  # ``(layer name, "a" | "g")`` of each factor the task is for
    solve: Optional[Callable]  # None once run or dropped, or when making the task already failed
    what: str  # "eigendecomposition", "damped inverse" or "statistics product", for the error message
    future: Future = dataclasses.field(default_factory=Future)  # of :meth:`run`, on whichever thread
    line: int = 1  # the worker's line it is queued in: 0 for a product, 1 for a solve

    def run(self) -> tuple:
        """``(results, error, seconds)`` of the solve, which the task lets go of: either thread runs it alike."""
        solve, self.solve = self.solve, None
        start = time.perf_counter()
        try:
            return solve(), None, time.perf_counter() - start
        except Exception as error:  # raised by take(), once every task has returned
            return None, error, time.perf_counter() - start


class RefreshQueue:
    """One rank's pending factor solves and statistics products, and the worker thread beside its step.

    ``make_task(factors, repr, dampings)`` checks ``factors`` (all stored as
    ``repr``) and returns the task that solves them: their decompositions
    when ``dampings`` is None, else their inverses damped by one ``γ`` each;
    ``tracer`` receives the ``kfac/eigen_{solve,caller,hidden}_ms`` gauges and
    the ``kfac/kernel_dispatch`` instant of every :meth:`take`, and the step's
    ``kfac/stats_{solve,caller,hidden}_ms`` (:meth:`collect`).
    """

    def __init__(self, make_task: Callable[..., Callable[[], list]], tracer, name: str) -> None:
        self.make_task, self.tracer, self.name = make_task, tracer, name
        self.tasks: List[_Task] = []  # pending solves, in submission order
        self._lines = (deque(), deque())  # what the worker runs next: products first, then solves
        self._ready = threading.Condition()  # guards the lines and every task's leaving them
        self._stats_ms = (0.0, 0.0, 0.0)  # the step's products so far: solve, caller, hidden
        self.worker: Optional[threading.Thread] = None  # started by the first task, joined by close()

    def _dispatch(self, task: _Task, line: int) -> None:
        if self.worker is None:
            self.worker = threading.Thread(target=_work, args=(self._ready, self._lines), name=self.name, daemon=True)
            self._stop = weakref.finalize(self, _enqueue, self._ready, self._lines[0], None)  # once collected, too
            self.worker.start()
        task.line = line
        _enqueue(self._ready, self._lines[line], task)

    def _claim(self, task: _Task) -> bool:
        """Cancel ``task`` and take it out of the worker's line if it still waits there: True when the caller has it."""
        with self._ready:  # the worker starts what it takes from a line under the same lock
            if task.future.done() or not task.future.cancel():
                return False
            self._lines[task.line].remove(task)
            return True

    def submit(self, factors: Iterable[Tuple[Hashable, np.ndarray, FactorRepr, Optional[float]]]) -> None:
        """Make the task of each ``(key, factor, repr, damping)`` now and queue it; a key already pending is skipped.

        ``damping`` is None for a decomposition, the factor's ``γ`` for a
        damped inverse.  A factor whose blocks are above
        :data:`~repro.kfac.kernels.STACK_EIGH_MAX_DIM`, or of size one, is a
        task of its own, so :meth:`take` can solve any of them the worker has
        not started; the others are one stacked task per representation,
        dtype and kind of solve.  A failure to make a
        task waits, like a failed solve, for :meth:`take` to raise it.
        """
        queued = {key for task in self.tasks for key in task.keys}
        groups: Dict[Hashable, list] = {}
        for key, factor, repr_, damping in factors:
            if key not in queued:
                stacked = 1 < repr_.block_size <= STACK_EIGH_MAX_DIM
                group = (repr_, factor.dtype.str, damping is None) if stacked else key
                groups.setdefault(group, []).append((key, factor, repr_, damping))
        for members in groups.values():
            dampings = None if members[0][3] is None else [damping for *_, damping in members]
            what = "eigendecomposition" if dampings is None else "damped inverse"
            task = _Task([key for key, *_ in members], None, what)
            self.tasks.append(task)
            try:
                task.solve = self.make_task([factor for _, factor, _, _ in members], members[0][2], dampings)
            except (ValueError, np.linalg.LinAlgError) as error:
                task.future.set_result((None, error, 0.0))
            else:
                self._dispatch(task, 1)

    @staticmethod
    def takes(repr_: FactorRepr) -> bool:
        """Whether the worker forms the statistics products of a factor stored as ``repr_``."""
        return repr_.block_size >= MIN_DEFERRED_BLOCK

    def defer(self, key: Hashable, product: Callable[[], np.ndarray]) -> _Task:
        """Queue ``product`` (factor ``key``'s statistic) ahead of the solves, to run in this context (its ``np.errstate``)."""
        task = _Task([key], functools.partial(contextvars.copy_context().run, product), "statistics product")
        self._dispatch(task, 0)
        return task

    def _settle(self, tasks: Sequence[_Task], gauge: str, totals=(0.0, 0.0, 0.0)) -> Tuple[list, tuple]:
        """Every task's outcome, in order, and ``totals`` plus their times, which the ``kfac/<gauge>_*`` gauges get.

        Runs here, one by one, the tasks the worker has not started and waits for the others; then raises the
        first failure naming its layer and factor.  The times: the tasks' run time, the part run here, and the
        part no caller waited for.
        """
        start = time.perf_counter()
        here = [self._claim(task) and task.run() for task in tasks]
        outcomes = [mine or task.future.result() for mine, task in zip(here, tasks)]
        wait_ms = (time.perf_counter() - start) * 1e3
        for task, (_, error, _) in zip(tasks, outcomes):
            if error is not None:
                index = getattr(error, "batch_index", None)
                culprits = task.keys if index is None or len(task.keys) == 1 else [task.keys[index]]
                named = ", ".join(f"{which.upper()} factor of layer {name!r}" for name, which in culprits)
                try:
                    renamed = type(error)(f"{task.what} of the {named} failed: {error}")
                except TypeError:  # a type that takes other arguments goes as it is
                    raise error from None
                raise renamed from error
        solve_ms = sum(seconds for *_, seconds in outcomes) * 1e3
        caller_ms = sum(mine[2] for mine in here if mine) * 1e3
        times = tuple(total + ms for total, ms in zip(totals, (solve_ms, caller_ms, max(0.0, solve_ms - wait_ms))))
        for part, ms in zip(("solve", "caller", "hidden"), times):
            self.tracer.gauge_set(f"kfac/{gauge}_{part}_ms", ms)
        return outcomes, times

    def take(self, **attrs: Any) -> Dict[Hashable, Any]:
        """Every pending solve's result by key (:meth:`_settle`, ``kfac/eigen_*``), then ``kfac/kernel_dispatch`` with ``attrs``."""
        tasks, self.tasks = self.tasks, []
        outcomes, (solve_ms, caller_ms, hidden_ms) = self._settle(tasks, "eigen")
        batch_sizes = [len(task.keys) for task in tasks]
        self.tracer.instant(
            "kfac/kernel_dispatch", category="kfac", factors=sum(batch_sizes), batch_sizes=batch_sizes,
            solve_ms=solve_ms, caller_ms=caller_ms, hidden_ms=hidden_ms, **attrs,
        )  # fmt: skip
        return {key: result for task, (results, _, _) in zip(tasks, outcomes) for key, result in zip(task.keys, results)}

    def collect(self, tasks: Sequence[_Task]) -> List[np.ndarray]:
        """The results of the products ``tasks`` (:meth:`_settle`), their times added to the step's ``kfac/stats_*``."""
        outcomes, self._stats_ms = self._settle(tasks, "stats", self._stats_ms)
        return [result for result, _, _ in outcomes]

    def drop(self, tasks: Sequence[_Task]) -> None:
        """Cancel ``tasks`` the worker has not started and wait for the one it runs; each lets go of its inputs."""
        wait([task.future for task in tasks if not self._claim(task)])
        for task in tasks:
            task.solve = None

    def cancel(self) -> None:
        """:meth:`drop` every pending solve and start the product gauges from zero: nothing stays pending."""
        self.drop(self.tasks)
        self.tasks, self._stats_ms = [], (0.0, 0.0, 0.0)

    def close(self) -> None:
        """:meth:`cancel`, then join the worker thread once it has run the products still queued; safe to call again."""
        self.cancel()
        if self.worker is not None:
            self._stop()
            self.worker.join()
            self.worker = None
