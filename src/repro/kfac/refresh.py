"""The refresh queue: one rank's eigen solves, run on its worker thread or on the step's own.

A refresh decomposes the running factors as they stood when its step began
(paper section 3.4, stage 2), while forward and backward still run.
:class:`RefreshQueue` alone decides which thread solves what, and when.  A
task is any zero-argument callable that returns one result per factor it
read, such as :meth:`~repro.kfac.kernels.KernelBackend.eigen_task`'s; its
result does not depend on the thread that runs it, so neither does the
trajectory.
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
    keys: List[Hashable]  # ``(layer name, "a" | "g")`` of each factor the task decomposes
    solve: Optional[Callable[[], list]]  # None when reading the factors already failed
    future: Future  # of ``_solve(solve)`` on the worker


class RefreshQueue:
    """One rank's pending factor solves and the worker thread beside its step.

    ``make_task(factors, repr)`` reads ``factors`` (all stored as ``repr``)
    and returns the task that solves them; ``tracer`` receives the
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

    def submit(self, factors: Iterable[Tuple[Hashable, np.ndarray, FactorRepr]]) -> None:
        """Read each ``(key, factor, repr)`` now and queue its solve; a key already pending is skipped.

        A factor above :data:`~repro.kfac.kernels.STACK_EIGH_MAX_DIM`, or one
        that is not dense, is a task of its own, so :meth:`take` can solve any
        of them the worker has not started; the dense ones at or below it are
        one stacked task per dimension and dtype.  A failure to read waits,
        like a failed solve, for :meth:`take` to raise it.
        """
        queued = {key for task in self.tasks for key in task.keys}
        groups: Dict[Hashable, list] = {}
        for key, factor, repr_ in factors:
            if key not in queued:
                stacked = repr_.is_dense and repr_.dim <= STACK_EIGH_MAX_DIM
                groups.setdefault((repr_, factor.dtype.str) if stacked else key, []).append((key, factor, repr_))
        for members in groups.values():
            try:
                solve = self.make_task([factor for _, factor, _ in members], members[0][2])
            except (ValueError, np.linalg.LinAlgError) as error:
                solve, future = None, Future()
                future.set_result((None, error, 0.0))
            else:
                future = self.worker.submit(_solve, solve)
            self.tasks.append(_Task([key for key, *_ in members], solve, future))

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
                raise type(error)(f"eigendecomposition of the {named} failed: {error}") from error
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
