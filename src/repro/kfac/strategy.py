"""Work placement: MEM-OPT, COMM-OPT and HYBRID-OPT (paper section 3.1).

``grad_worker_frac`` controls how many processes act as *gradient workers* for
each layer, i.e. how many ranks hold that layer's second-order state (its
damped inverses or eigen decompositions) and precondition its gradient
locally:

* ``grad_worker_frac = 1/world_size`` → **MEM-OPT** (Osawa et al. 2019): one
  gradient worker per layer; it preconditions and broadcasts the
  preconditioned gradient to everyone else every iteration.
* ``grad_worker_frac = 1`` → **COMM-OPT** (Pauloski et al. 2020): every rank
  is a gradient worker; eigen decompositions are broadcast once per K-FAC
  update and no per-iteration gradient broadcast is needed.
* anything in between → **HYBRID-OPT**: the eigen worker broadcasts the eigen
  decompositions to the gradient-worker subset; each gradient worker then
  broadcasts the preconditioned gradient to its own (smaller) receiver group,
  and those broadcasts proceed concurrently.

The three schemes are one placement function of that number,
:func:`assign_workers`: per-factor LPT when every rank is a gradient worker,
fixed blocks of :func:`num_grad_workers` ranks otherwise (MEM-OPT is blocks of
one).  :func:`build_plan` sees layer *shapes* and a precision policy, never
the preconditioner or a live layer, and returns **data, the same on every
rank**: a :class:`DistributionPlan` naming the scheme, the placement (which
rank decomposes and keeps each running factor, which ranks are each layer's
gradient workers), the
:class:`~repro.kfac.scheduling.SolveStrategy` (whose state each layer's
gradient workers hold), and the three communication rounds of one update as unbound
specs -- ``(key, shape, dtype)`` per factor allreduce, a
:class:`~repro.distributed.collectives.BroadcastSpec` without ``payload`` /
``on_complete`` per eigen (or damped-inverse) and preconditioned-gradient
message.  The schedule
is global (the collective engine skips the channels that do not contain the
local rank), so nothing here branches on a rank.  :class:`~repro.kfac.KFAC`
attaches the arrays to the specs and posts them; the cost and memory models
price the same specs and sum the same holders.  All of them get the plan from
:meth:`KFACConfig.distribution_plan <repro.kfac.KFACConfig.distribution_plan>`,
the one caller of :func:`build_plan`: a plan is a function of the config, the
layer shapes and the world size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..distributed.collectives import BroadcastSpec, BucketManager, broadcast_messages
from ..tensor import PrecisionPolicy
from .assignment import folds_on, greedy_lpt_assignment, next_refresh_step, staggered_refresh_offsets
from .factors import FactorRepr

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .scheduling.solvers import SolveStrategy

__all__ = [
    "LayerShapeInfo",
    "LayerWorkGroups",
    "StepActions",
    "DistributionPlan",
    "num_grad_workers",
    "assign_workers",
    "build_plan",
]


@dataclass(frozen=True)
class LayerShapeInfo:
    """Shape information the placement needs about one K-FAC-preconditioned layer: its two factor representations.

    The factor dimensions and the size of the (bias-folded) ``g × a``
    gradient matrix follow from them.
    """

    name: str
    a_repr: FactorRepr  # the A (activation) Kronecker factor
    g_repr: FactorRepr  # the G (gradient) Kronecker factor

    @classmethod
    def dense(cls, name: str, a_dim: int, g_dim: int) -> "LayerShapeInfo":
        """A layer whose two factors are dense."""
        return cls(name, FactorRepr.dense(a_dim), FactorRepr.dense(g_dim))

    @property
    def a_dim(self) -> int:
        return self.a_repr.dim

    @property
    def g_dim(self) -> int:
        return self.g_repr.dim

    @property
    def grad_numel(self) -> int:
        """Elements of the bias-folded gradient matrix."""
        return self.a_dim * self.g_dim

    @property
    def eigen_cost(self) -> float:
        """Per-repr eigen-decomposition cost proxy used by the LPT scheduler.

        ``k·b³`` per factor: the historical O(N³) for a dense one, O(N)
        for a diagonal one.
        """
        return self.a_repr.eigen_flops() + self.g_repr.eigen_flops()

    @property
    def memory_cost(self) -> float:
        """Packed storage cost proxy (alternative balancing objective)."""
        return float(self.a_repr.packed_numel) + float(self.g_repr.packed_numel)

    def factor_repr(self, which: str) -> FactorRepr:
        return self.a_repr if which == "a" else self.g_repr

    def factor_bytes(self, precision: PrecisionPolicy, which: str = "ag") -> int:
        """Bytes of the stored running ``"a"`` / ``"g"`` factor, or both (packed: one triangle of a dense one, O(F) for a diagonal one)."""
        numel = sum(self.factor_repr(one).packed_numel for one in which)
        return numel * np.dtype(precision.factor_dtype).itemsize


@dataclass
class LayerWorkGroups:
    """One layer's worker roles, as :func:`assign_workers` places them."""

    layer: LayerShapeInfo
    eigen_worker_a: int
    eigen_worker_g: int
    grad_workers: Tuple[int, ...]
    receiver_map: Dict[int, Tuple[int, ...]]  # grad worker -> receivers it broadcasts to

    def decomposer(self, which: str) -> int:
        """The rank that refreshes factor ``"a"`` / ``"g"`` (decomposes or inverts it) and the one that keeps it."""
        return self.eigen_worker_a if which == "a" else self.eigen_worker_g

    def is_grad_worker(self, rank: int) -> bool:
        return rank in self.grad_workers

    def receivers_of(self, rank: int) -> Tuple[int, ...]:
        return self.receiver_map.get(rank, ())


#: One factor allreduce as the bucket manager takes it: ``(key, wire shape, dtype)``.
FactorSpec = Tuple[str, Tuple[int, ...], np.dtype]


@dataclass(frozen=True)
class StepActions:
    """What one step does: the layers that ``fold`` their factors and ``refresh`` their decompositions.

    Both are layer names in registration order; the rounds they post are read
    off the plan the actions came from (:meth:`DistributionPlan.actions`).
    """

    step: int
    fold: Tuple[str, ...]
    refresh: Tuple[str, ...]
    plan: "DistributionPlan" = field(repr=False, compare=False)

    def factor_round(self) -> Tuple[FactorSpec, ...]:
        """The window allreduces of ``fold``, in reverse layer order: the order backward finalizes the layers.

        ``KFAC.step`` fills its buckets in this order, as DDP fills its
        gradient buckets.
        """
        return tuple(spec for name in reversed(self.fold) for spec in self.plan.factor_round[name])

    @property
    def eigen_round(self) -> Tuple[BroadcastSpec, ...]:
        """The broadcasts of the decompositions ``refresh`` produces."""
        return tuple(spec for name in self.refresh for spec in self.plan.eigen_round[name])

    @property
    def gradient_round(self) -> Tuple[BroadcastSpec, ...]:
        """The preconditioned-gradient broadcasts of every layer: every step posts them."""
        return tuple(spec for specs in self.plan.gradient_round.values() for spec in specs)


@dataclass(frozen=True)
class DistributionPlan:
    """One K-FAC update as data: who computes, who holds, what moves and when.  Identical on every rank.

    Every mapping is keyed by layer name in registration order, so a step
    that refreshes a subset of layers concatenates those layers' entries and
    keeps the order.  Which rank refreshes and keeps each running factor is
    its group's :meth:`LayerWorkGroups.decomposer`.  ``solver`` is the
    :class:`~repro.kfac.scheduling.SolveStrategy` class of every layer: what its eigen round ships and its gradient workers hold.
    ``refresh_offsets`` is the phase of each layer's decomposition in the
    interval (:func:`~repro.kfac.assignment.staggered_refresh_offsets`);
    :meth:`actions` turns the two cadences and the offsets into what a step does.
    ``bucket_cap_mb`` is the fused-buffer cap every round is bucketed under:
    the engine's scheduler and :meth:`messages` both read it.
    """

    scheme: str  # "MEM-OPT", "HYBRID-OPT" or "COMM-OPT": which one grad_worker_frac selects
    world_size: int
    precision: PrecisionPolicy  # the dtypes that size the factors and the second-order state
    groups: Dict[str, LayerWorkGroups]  # placement
    solver: Type["SolveStrategy"]  # what solves every layer: its gradient workers hold that state
    factor_round: Dict[str, Tuple[FactorSpec, ...]]  # world-wide window allreduces
    eigen_round: Dict[str, Tuple[BroadcastSpec, ...]]  # after a refresh: decompositions or packed inverses
    gradient_round: Dict[str, Tuple[BroadcastSpec, ...]]  # every step
    factor_update_freq: int
    inv_update_freq: int
    refresh_offsets: Dict[str, int]  # phase of the layer's refresh in the interval
    bucket_cap_mb: float  # fused-buffer cap (MB) of every round

    def actions(self, step: int) -> StepActions:
        """What the base cadence does on ``step``; the one place it is stated.

        Every layer folds on the steps :func:`~repro.kfac.assignment.folds_on`
        names (every ``factor_update_freq`` steps of an interval).  Every
        layer is decomposed on step 0, afterwards on the steps with ``step %
        inv_update_freq`` equal to its offset.  A refresh reads the running
        factors as they stood when its step began, before the step's fold (on
        step 0, which has no earlier factors, after it), so a step that no
        fold after step 0 precedes is passed over: it would decompose the
        factors of step 0 a second time
        (:func:`~repro.kfac.assignment.next_refresh_step`).
        """
        cadence = (self.factor_update_freq, self.inv_update_freq)
        fold = tuple(self.groups) if folds_on(step, *cadence) else ()
        refresh = tuple(
            name
            for name, offset in self.refresh_offsets.items()
            if step == 0 or next_refresh_step(offset, step, *cadence) == step
        )
        return StepActions(step, fold, refresh, self)

    def steady_interval(self) -> List[StepActions]:
        """The actions of one interval the base cadence repeats: the third, as the first two may pass a refresh over."""
        interval = self.inv_update_freq
        return [self.actions(2 * interval + phase) for phase in range(interval)]

    def factor_bytes_per_rank(self) -> np.ndarray:
        """Running-factor bytes each rank holds."""
        per_rank = np.zeros(self.world_size, dtype=np.int64)
        for group in self.groups.values():
            for which in ("a", "g"):
                per_rank[group.decomposer(which)] += group.layer.factor_bytes(self.precision, which)
        return per_rank

    def state_bytes_per_rank(self, memory_key: Optional[str] = None) -> np.ndarray:
        """Second-order state bytes each rank holds: ``SolveStrategy.state_bytes`` of the layers it is a gradient worker of.

        The strategy prices a rank's layers together: the inverse path pairs
        their dense inverses two to a buffer.  With ``memory_key`` (``"eigen"``
        / ``"solver"``) only state ``memory_usage()`` counts under that key.
        """
        per_rank = np.zeros(self.world_size, dtype=np.int64)
        if memory_key not in (None, self.solver.memory_key):
            return per_rank
        for rank in range(self.world_size):
            held = [group.layer for group in self.groups.values() if group.is_grad_worker(rank)]
            per_rank[rank] = self.solver.state_bytes(held, self.precision)
        return per_rank

    def messages(self, step: Optional[int] = None) -> Dict[str, List[Tuple[Tuple[int, ...], int]]]:
        """Every message of one full update -- or of step ``step`` alone -- as the collective engine posts it.

        ``{"factor" | "eigen" | "gradient": [(members, nbytes), ...]}``, one
        entry per fused bucket: the rounds' specs through the engine's own
        grouping (:func:`~repro.distributed.collectives.broadcast_messages`,
        one world-wide channel for the factor allreduces) under the plan's
        ``bucket_cap_mb``, so the counts are what a communication log records.  ``step`` buckets
        :meth:`actions` of that step: its factor round if it folds, the eigen
        round of the layers it decomposes, the gradient round.  A full update
        sums the actions of one steady interval (:meth:`steady_interval`): one factor round, the eigen
        round of every step that decomposes anything (one round where every
        offset is 0), one gradient round.  A group of one exchanges nothing
        and is not a message.
        """
        buckets = BucketManager(self.bucket_cap_mb)
        if step is None:
            interval = self.steady_interval()
        else:
            interval = [self.actions(step)]
        out: Dict[str, List[Tuple[Tuple[int, ...], int]]] = {"factor": [], "eigen": [], "gradient": []}
        if self.world_size > 1 and interval[0].fold:
            everyone = tuple(range(self.world_size))
            out["factor"] = [(everyone, bucket.nbytes) for bucket in buckets.build(interval[0].factor_round())]
        rounds = [("eigen", actions.eigen_round) for actions in interval] + [("gradient", interval[0].gradient_round)]
        for label, specs in rounds:
            for _, members, _, channel_buckets in broadcast_messages(specs, self.world_size, buckets):
                if len(members) > 1:
                    out[label] += [(members, bucket.nbytes) for bucket in channel_buckets]
        return out

    def digest(self) -> str:
        """Fingerprint of everything above: the placement, every spec's key / src / group / shape / dtype and the cap.

        What the sanitizer compares across ranks before the first schedule is
        posted: ranks that disagree here would post mismatched collectives.
        """
        return hashlib.sha1(repr(self).encode()).hexdigest()


def num_grad_workers(world_size: int, grad_worker_frac: float) -> int:
    """``max(1, grad_worker_frac * world_size)``, rounded, as defined in section 3.1."""
    return max(1, int(round(grad_worker_frac * world_size)))


def assign_workers(
    layers: Sequence[LayerShapeInfo],
    world_size: int,
    grad_worker_frac: float,
    balance: str = "compute",
    paired: Iterable[str] = (),
) -> Dict[str, LayerWorkGroups]:
    """Eigen workers, gradient workers and receiver groups of every layer.

    A deterministic function of its arguments, so every rank computes the
    identical placement without communication.  ``balance`` is the LPT job
    cost: ``"compute"`` the eigen flops, ``"memory"`` the packed storage.

    * Every rank a gradient worker (COMM-OPT, section 2.2.2): the A and G
      factors are placed separately by LPT, doubling worker utilisation; the
      decompositions go world-wide and no gradient is broadcast.  The layers
      named in ``paired`` need both factors on one rank (a damped inverse
      reads both traces): where LPT split one, its cheaper factor follows the
      costlier one (G follows A on a tie), and every other factor stays
      where LPT put it.
    * Otherwise (HYBRID-OPT, Figure 4; MEM-OPT is its blocks of one): whole
      layers are placed by LPT and the ranks are partitioned into fixed
      blocks of :func:`num_grad_workers`.  A layer's gradient workers are the
      block containing its eigen worker -- only they receive and keep its
      second-order state, the tunable memory footprint of section 3.1.  Each
      gradient worker broadcasts the preconditioned gradient to its share of
      the remaining ranks, so those broadcasts are small and concurrent.
    """
    if not layers:
        return {}
    workers = num_grad_workers(world_size, grad_worker_frac)
    memory = balance == "memory"
    if workers >= world_size:
        costs = {
            (layer.name, which.upper()): (
                float(layer.factor_repr(which).packed_numel) if memory else layer.factor_repr(which).eigen_flops()
            )
            for layer in layers
            for which in "ag"
        }
        placed = greedy_lpt_assignment(costs, world_size).assignment
        for name in paired:
            follower, leader = ("A", "G") if costs[name, "A"] < costs[name, "G"] else ("G", "A")
            placed[name, follower] = placed[name, leader]
        everyone = tuple(range(world_size))
        return {
            layer.name: LayerWorkGroups(layer, placed[layer.name, "A"], placed[layer.name, "G"], everyone, {})
            for layer in layers
        }
    costs = {layer.name: layer.memory_cost if memory else layer.eigen_cost for layer in layers}
    placed = greedy_lpt_assignment(costs, world_size).assignment
    groups: Dict[str, LayerWorkGroups] = {}
    for layer in layers:
        eigen_worker = placed[layer.name]
        start = eigen_worker // workers * workers
        grad_workers = tuple(range(start, min(start + workers, world_size)))
        receivers = [rank for rank in range(world_size) if rank not in grad_workers]
        receiver_map = {
            worker: tuple(receivers[index :: len(grad_workers)]) for index, worker in enumerate(grad_workers)
        }
        groups[layer.name] = LayerWorkGroups(layer, eigen_worker, eigen_worker, grad_workers, receiver_map)
    return groups


# A spec names one logical tensor; the collective engine fuses the specs that
# share a (src, group) channel into capped buckets, in list order.
def _eigen_round(
    group: LayerWorkGroups, precision: PrecisionPolicy, strategy: Type["SolveStrategy"]
) -> Tuple[BroadcastSpec, ...]:
    """Messages that take one layer's fresh refresh -- decompositions or damped inverses -- to its gradient workers.

    Each factor's result travels in ``strategy``'s wire form (``wire_shape``,
    in the inverse dtype so fp64 / fp16 are not truncated on the wire): a
    decomposition packed, eigenvalues then stored eigenvectors (the cached
    outer product is a function of the eigenvalues: every holder forms its
    own), a damped inverse as its blocks' triangles.  A group of one moves
    nothing: its only member keeps its result exactly as it is (unpacking
    would re-lay the eigenvectors out row-major, which shifts BLAS rounding in
    every later precondition; an inverse has one layout whatever the group).
    """
    members = group.grad_workers
    if len(members) <= 1:
        return ()
    layer = group.layer
    dtype = np.dtype(precision.inverse_dtype)
    return tuple(
        BroadcastSpec(
            f"{layer.name}/{strategy.name}_{which}", group.decomposer(which), members,
            strategy.wire_shape(layer.factor_repr(which)), dtype,
        )  # fmt: skip
        for which in ("a", "g")
    )


def _gradient_round(group: LayerWorkGroups) -> Tuple[BroadcastSpec, ...]:
    """Messages that take one layer's preconditioned gradient from each gradient worker to its receivers."""
    layer = group.layer
    return tuple(
        BroadcastSpec(
            key=f"{layer.name}/precond_grad",
            src=worker,
            group=(worker,) + group.receivers_of(worker),
            # precondition() returns the float32 bias-folded matrix (g_dim, a_dim)
            shape=(layer.g_dim, layer.a_dim),
            dtype=np.dtype(np.float32),
        )
        for worker in group.grad_workers
        if group.receivers_of(worker)
    )


def build_plan(
    layers: Sequence[LayerShapeInfo],
    world_size: int,
    grad_worker_frac: float,
    balance: str,
    precision: PrecisionPolicy,
    solver: Type["SolveStrategy"],
    factor_update_freq: int,
    inv_update_freq: int,
    bucket_cap_mb: float,
) -> DistributionPlan:
    """The :class:`DistributionPlan` of ``layers``, its rounds bucketed under ``bucket_cap_mb``.

    :meth:`~repro.kfac.KFACConfig.distribution_plan` is the one caller: it
    turns the hyperparameters into these arguments, ``solver`` the
    :class:`~repro.kfac.scheduling.SolveStrategy` class of every layer.
    Placement is :func:`assign_workers`; each factor is refreshed by its
    eigen worker as the strategy says -- decomposed, or inverted (both of
    the layer's factors on one rank, which holds both traces, when the
    strategy ``pairs_factors``) -- and the eigen round ships the result in
    the strategy's wire form.  A running factor is held by the one rank that
    reads it: its decomposer.  Factors are allreduced world-wide as
    the ranks' *window* averages, in the form they are stored in: a dense one
    as its packed triangle (section 4.3's optimisation, here the only layout),
    a diagonal one as O(F) elements.  The two cadences place each layer's
    refresh inside the interval (``refresh_offsets``) from its eigen cost
    alone -- not from the placement, so every scheme decomposes a layer on the
    same steps.
    """
    layers = list(layers)
    workers = num_grad_workers(world_size, grad_worker_frac)
    scheme = "COMM-OPT" if workers >= world_size else "MEM-OPT" if workers == 1 else "HYBRID-OPT"
    paired = [layer.name for layer in layers] if solver.pairs_factors else []
    groups = assign_workers(layers, world_size, grad_worker_frac, balance, paired=paired)
    factor_dtype = np.dtype(precision.factor_dtype)
    offsets = staggered_refresh_offsets(
        {layer.name: layer.eigen_cost for layer in layers}, world_size, factor_update_freq, inv_update_freq
    )
    plan = DistributionPlan(
        scheme, world_size, precision, groups, solver, {}, {}, {},
        int(factor_update_freq), int(inv_update_freq), offsets, float(bucket_cap_mb),
    )  # fmt: skip
    for layer in layers:
        name, group = layer.name, groups[layer.name]
        if solver.pairs_factors and group.eigen_worker_a != group.eigen_worker_g:
            raise RuntimeError(f"layer {name!r} is inverted, but its A and G factors are placed on different ranks")
        plan.factor_round[name] = tuple(
            (f"{name}/factor_{which}", layer.factor_repr(which).packed_shape, factor_dtype) for which in ("a", "g")
        )
        plan.eigen_round[name] = _eigen_round(group, precision, solver)
        plan.gradient_round[name] = _gradient_round(group)
    return plan
