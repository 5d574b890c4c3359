"""The refresh queue: one rank's factor solves, run on its worker thread or on the step's own.

A refresh decomposes -- or, on the default ``inverse`` path, inverts -- the
running factors as they stood when its step began (paper section 3.4, stage
2), while forward and backward still run.  :class:`RefreshQueue` alone
decides which thread solves what, and when.  A task is any zero-argument
callable that returns one result per factor it was given, such as
:meth:`~repro.kfac.kernels.KernelBackend.eigen_task`'s or
:meth:`~repro.kfac.kernels.KernelBackend.inverse_task`'s; its result does not
depend on the thread that runs it, so neither does the trajectory.  A task
holds references to the factors, not copies: a fold never writes a published
running factor (it makes a new array), so a task the worker starts after its
step's fold still solves the factors the step began with.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .factors import FactorRepr
from .kernels import STACK_EIGH_MAX_DIM

__all__ = ["RefreshQueue"]


def _solve(task: Callable[[], list]) -> tuple:
    """``(results, error, seconds)`` of one task: the worker's and the caller's solves are kept alike."""
    start = time.perf_counter()
    try:
        return task(), None, time.perf_counter() - start
    except Exception as error:  # raised by take(), once every task has returned
        return None, error, time.perf_counter() - start


class _Task(NamedTuple):
    keys: List[Hashable]  # ``(layer name, "a" | "g")`` of each factor the task solves
    solve: Optional[Callable[[], list]]  # None when making the task already failed
    future: Future  # of ``_solve(solve)`` on the worker
    what: str  # "eigendecomposition" or "damped inverse", for the error message


class RefreshQueue:
    """One rank's pending factor solves and the worker thread beside its step.

    ``make_task(factors, repr, dampings)`` checks ``factors`` (all stored as
    ``repr``) and returns the task that solves them: their decompositions
    when ``dampings`` is None, else their inverses damped by one ``γ`` each;
    ``tracer`` receives the
    ``kfac/eigen_{solve,caller,hidden}_ms`` gauges and the
    ``kfac/kernel_dispatch`` instant of every :meth:`take`.
    """

    def __init__(self, make_task: Callable[..., Callable[[], list]], tracer, name: str) -> None:
        self.make_task, self.tracer, self.name = make_task, tracer, name
        self.tasks: List[_Task] = []  # pending, in submission order
        self._worker: Optional[ThreadPoolExecutor] = None

    @property
    def worker(self) -> ThreadPoolExecutor:
        """The one worker thread, started on first use and joined by :meth:`close`."""
        if self._worker is None:
            self._worker = ThreadPoolExecutor(1, thread_name_prefix=self.name)
        return self._worker

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
            try:
                solve = self.make_task([factor for _, factor, _, _ in members], members[0][2], dampings)
            except (ValueError, np.linalg.LinAlgError) as error:
                solve, future = None, Future()
                future.set_result((None, error, 0.0))
            else:
                future = self.worker.submit(_solve, solve)
            what = "eigendecomposition" if dampings is None else "damped inverse"
            self.tasks.append(_Task([key for key, *_ in members], solve, future, what))

    def take(self, **attrs: Any) -> Dict[Hashable, Any]:
        """Every pending key's result, in submission order; nothing stays pending.

        Walks the tasks in submission order and solves on this thread each
        one the worker has not started (``Future.cancel`` succeeds only for
        those), one at a time so the worker goes on taking the next ones, then
        waits for the one it runs.  The first failure is raised naming its
        layer and factor (the batch member, for a stack) before any result is
        returned.  Sets the gauges -- every task's own solve time, the part
        solved on this thread, and the part no caller waited for (solve minus
        the time spent here) -- and emits ``kfac/kernel_dispatch`` with
        ``attrs``.
        """
        tasks, self.tasks = self.tasks, []
        start = time.perf_counter()
        here = [task.future.cancel() and _solve(task.solve) for task in tasks]
        outcomes = [mine or task.future.result() for mine, task in zip(here, tasks)]
        wait_ms = (time.perf_counter() - start) * 1e3
        for task, (_, error, _) in zip(tasks, outcomes):
            if isinstance(error, (ValueError, np.linalg.LinAlgError)):
                index = getattr(error, "batch_index", None)
                culprits = task.keys if index is None or len(task.keys) == 1 else [task.keys[index]]
                named = ", ".join(f"{which.upper()} factor of layer {name!r}" for name, which in culprits)
                raise type(error)(f"{task.what} of the {named} failed: {error}") from error
            if error is not None:
                raise error
        solve_ms = sum(seconds for *_, seconds in outcomes) * 1e3
        caller_ms = sum(mine[2] for mine in here if mine) * 1e3
        hidden_ms = max(0.0, solve_ms - wait_ms)
        for part, ms in (("solve", solve_ms), ("caller", caller_ms), ("hidden", hidden_ms)):
            self.tracer.gauge_set(f"kfac/eigen_{part}_ms", ms)
        batch_sizes = [len(task.keys) for task in tasks]
        self.tracer.instant(
            "kfac/kernel_dispatch", category="kfac", factors=sum(batch_sizes), batch_sizes=batch_sizes,
            solve_ms=solve_ms, caller_ms=caller_ms, hidden_ms=hidden_ms, **attrs,
        )  # fmt: skip
        return {key: result for task, (results, _, _) in zip(tasks, outcomes) for key, result in zip(task.keys, results)}

    def cancel(self) -> None:
        """Cancel the tasks the worker has not started and wait for the one it runs; nothing stays pending."""
        wait([task.future for task in self.tasks if not task.future.cancel()])
        self.tasks = []

    def close(self) -> None:
        """:meth:`cancel`, then join the worker thread; safe to call again."""
        self.cancel()
        if self._worker is not None:
            self._worker.shutdown(wait=True)
            self._worker = None
