"""Greedy factor-to-worker assignment (paper section 3.2).

The eigen decompositions are the most expensive K-FAC computation, so they
are distributed across workers.  KAISA uses the longest-processing-time (LPT)
greedy algorithm, which guarantees a makespan within 3/2 of optimal: sort
jobs by decreasing cost and repeatedly give the next job to the least-loaded
worker.  Job cost is ``O(N^3)`` in the factor dimension (eigen decomposition
cost) or, alternatively, ``O(N^2)`` when balancing for memory instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "AssignmentResult",
    "greedy_lpt_assignment",
    "round_robin_assignment",
    "makespan",
    "staggered_refresh_offsets",
    "next_refresh_step",
    "folds_on",
]


@dataclass
class AssignmentResult:
    """Result of distributing jobs over workers."""

    assignment: Dict[Hashable, int]
    loads: List[float]

    @property
    def makespan(self) -> float:
        return max(self.loads) if self.loads else 0.0

    def jobs_for(self, worker: int) -> List[Hashable]:
        return [job for job, assigned in self.assignment.items() if assigned == worker]


def greedy_lpt_assignment(costs: Mapping[Hashable, float], num_workers: int) -> AssignmentResult:
    """Assign each job to a worker with the longest-processing-time greedy rule.

    Ties in load are broken by worker index so the assignment is deterministic
    across ranks (every rank must compute the identical assignment without
    communicating).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    loads = [0.0] * num_workers
    assignment: Dict[Hashable, int] = {}
    # Sort by decreasing cost; tie-break on the stringified job id for determinism.
    ordered = sorted(costs.items(), key=lambda item: (-float(item[1]), str(item[0])))
    for job, cost in ordered:
        worker = min(range(num_workers), key=lambda w: (loads[w], w))
        assignment[job] = worker
        loads[worker] += float(cost)
    return AssignmentResult(assignment=assignment, loads=loads)


def round_robin_assignment(costs: Mapping[Hashable, float], num_workers: int) -> AssignmentResult:
    """Baseline assignment used for the scheduling ablation: round robin in input order."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    loads = [0.0] * num_workers
    assignment: Dict[Hashable, int] = {}
    for index, (job, cost) in enumerate(costs.items()):
        worker = index % num_workers
        assignment[job] = worker
        loads[worker] += float(cost)
    return AssignmentResult(assignment=assignment, loads=loads)


def makespan(costs: Mapping[Hashable, float], assignment: Mapping[Hashable, int], num_workers: int) -> float:
    """Makespan (max per-worker load) of a given assignment."""
    loads = [0.0] * num_workers
    for job, worker in assignment.items():
        loads[worker] += float(costs[job])
    return max(loads) if loads else 0.0


def staggered_refresh_offsets(
    costs: Mapping[Hashable, float], world_size: int, factor_update_freq: int, inv_update_freq: int
) -> Dict[Hashable, int]:
    """Each job's phase in ``[0, inv_update_freq)``: the step of an interval on which it is decomposed.

    One refresh step carrying every decomposition is the spike of an interval,
    so the jobs are spread over its fold-free steps.  Jobs sorted by cost are
    cut into consecutive groups of ``world_size`` -- neighbours cost alike and
    LPT places them on different ranks, so a step's decompositions run side by
    side and no rank waits out a lone solve on another -- and the groups are
    packed, heaviest first, each onto the lightest of ``m`` steps taken nearest
    after a fold first (1, 6, 2, 7, ... at cadence 5 / 10: a refresh reads the
    factors as they stood when its step began, which on a fold-free step is as
    last folded, so the least stale slot comes first).
    ``m`` is the fewest steps that minimise the heaviest one, with fewer than
    half of an interval's steps carrying a fold or a decomposition: the median
    step stays a plain one.  The heaviest step is then at most the total over
    ``m`` plus the largest group.

    Every offset is 0 -- one refresh step, on a fold -- when the interval is not
    a multiple of ``factor_update_freq`` or that bound leaves no fold-free step
    (an interval of 1 or 2 steps, a fold on every step or every other one).
    A pure function of the costs, the world size and the two cadences: the
    same on every rank and under every placement.
    """
    fold_every, interval = int(factor_update_freq), int(inv_update_freq)
    offsets = {job: 0 for job in costs}
    ordered = sorted(costs.items(), key=lambda item: (-float(item[1]), str(item[0])))
    groups = [ordered[start : start + world_size] for start in range(0, len(ordered), world_size)]
    folds = interval // fold_every
    max_steps = min((interval - 1) // 2 - folds, len(groups))
    if interval % fold_every or max_steps < 1:
        return offsets
    slots = [fold + after for after in range(1, fold_every) for fold in range(0, interval, fold_every)]
    group_costs = {index: sum(float(cost) for _, cost in group) for index, group in enumerate(groups)}
    packing = min(
        (greedy_lpt_assignment(group_costs, steps) for steps in range(1, max_steps + 1)),
        key=lambda result: result.makespan,
    )
    for index, group in enumerate(groups):
        for job, _ in group:
            offsets[job] = slots[packing.assignment[index]]
    return offsets


def next_refresh_step(offset: int, at_step: int, factor_update_freq: int, inv_update_freq: int) -> int:
    """The first step at or after ``at_step`` on which the base cadence decomposes a layer with this ``offset``.

    After step 0 (which decomposes every layer) that is the steps with ``step
    % inv_update_freq == offset``, except that a step that no fold after step
    0 precedes is passed over: a refresh reads the factors as they stood when
    its step began, so it would decompose the factors of step 0 a second
    time.  The first fold after step 0 is at ``min(factor_update_freq,
    inv_update_freq)`` (:func:`folds_on`); at ``F = K = 1`` step 1 is passed
    over.
    """
    step = at_step + (offset - at_step) % inv_update_freq
    return step + inv_update_freq if 0 < step <= min(factor_update_freq, inv_update_freq) else step


def folds_on(step: int, factor_update_freq: int, inv_update_freq: int) -> bool:
    """Whether the base cadence folds the factors on ``step``: every ``factor_update_freq`` steps of an interval.

    A refresh at offset 0 (every ``inv_update_freq`` steps) forces a fold and
    restarts the count, so on cadences that do not nest the folds of an
    interval are its steps ``0, F, 2F, ...`` -- not ``step % F == 0``.
    """
    return step % inv_update_freq % factor_update_freq == 0
