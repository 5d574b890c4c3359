"""Work placement: MEM-OPT, COMM-OPT and HYBRID-OPT (paper section 3.1).

``grad_worker_frac`` controls how many processes act as *gradient workers* for
each layer, i.e. how many ranks cache that layer's eigen decompositions and
precondition its gradient locally:

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
one).  :func:`build_plan` sees layer *shapes* and a :class:`WirePolicy`, never
the preconditioner or a live layer, and returns **data, the same on every
rank**: a :class:`DistributionPlan` naming the scheme, which rank decomposes
which factor, which ranks hold each running factor and each layer's eigen
state, and the three communication rounds of one update as unbound specs --
``(key, shape, dtype)`` per factor allreduce, a
:class:`~repro.distributed.collectives.BroadcastSpec` without ``payload`` /
``on_complete`` per eigen and preconditioned-gradient message.  The schedule
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..distributed.collectives import BroadcastSpec, BucketManager, broadcast_messages
from ..tensor import PrecisionPolicy
from .assignment import folds_on, greedy_lpt_assignment, next_refresh_step, staggered_refresh_offsets
from .factors import FactorRepr
from .kmath import EigenDecomposition

__all__ = [
    "LayerShapeInfo",
    "LayerWorkGroups",
    "WirePolicy",
    "StepActions",
    "DistributionPlan",
    "num_grad_workers",
    "assign_workers",
    "build_plan",
    "pack_eigen",
    "unpack_eigen_repr",
]


def pack_eigen(eigen: EigenDecomposition, dtype=np.float32) -> np.ndarray:
    """Pack an eigen decomposition into one flat buffer in ``dtype``.

    The buffer is the eigenvalues followed by the stored eigenvectors —
    ``n + n*n`` elements for a dense factor (the eigenbasis is not symmetric: it stays square), ``n`` for a diagonal one (the
    identity eigenbasis is implicit and never hits the wire) and
    ``n + num_blocks*bs²`` for a block-diagonal stack.
    """
    parts = [eigen.eigenvalues.astype(dtype).reshape(-1)]
    if eigen.eigenvectors is not None:
        parts.append(eigen.eigenvectors.astype(dtype).reshape(-1))
    return np.concatenate(parts)


def unpack_eigen_repr(packed: np.ndarray, repr: FactorRepr, dtype=np.float32) -> EigenDecomposition:
    """Inverse of :func:`pack_eigen` for a factor in representation ``repr``."""
    expected = repr.packed_eigen_numel
    if packed.size != expected:
        raise ValueError(
            f"packed eigen buffer has {packed.size} elements, expected {expected} for {repr.describe()}"
        )
    eigenvalues = packed[: repr.dim].astype(dtype)
    if repr.kind == "diagonal":
        eigenvectors = None
    elif repr.kind == "dense":
        eigenvectors = packed[repr.dim :].reshape(repr.dim, repr.dim).astype(dtype)
    else:
        eigenvectors = packed[repr.dim :].reshape(repr.packed_shape).astype(dtype)
    return EigenDecomposition(eigenvectors=eigenvectors, eigenvalues=eigenvalues)


@dataclass(frozen=True)
class LayerShapeInfo:
    """Shape information the placement needs about one K-FAC-preconditioned layer.

    ``a_repr``/``g_repr`` carry the factor representations; they default to
    dense (``None`` in the constructor keeps every pre-structured call site
    working), in which case all costs reduce to the historical dense
    formulas bit for bit.
    """

    name: str
    a_dim: int  # dimension of the A (activation) Kronecker factor
    g_dim: int  # dimension of the G (gradient) Kronecker factor
    grad_numel: int  # number of elements in the (bias-folded) gradient matrix
    a_repr: Optional[FactorRepr] = None
    g_repr: Optional[FactorRepr] = None

    def __post_init__(self) -> None:
        if self.a_repr is None:
            object.__setattr__(self, "a_repr", FactorRepr.dense(self.a_dim))
        if self.g_repr is None:
            object.__setattr__(self, "g_repr", FactorRepr.dense(self.g_dim))
        for which, repr in (("a", self.a_repr), ("g", self.g_repr)):
            dim = self.a_dim if which == "a" else self.g_dim
            if repr.dim != dim:
                raise ValueError(
                    f"layer {self.name!r}: {which}_repr {repr.describe()} does not match "
                    f"{which}_dim={dim}"
                )

    @property
    def eigen_cost(self) -> float:
        """Per-repr eigen-decomposition cost proxy used by the LPT scheduler.

        Dense keeps the historical O(N³); diagonal is O(N) and
        block-diagonal O(num_blocks · bs³).
        """
        return self.a_repr.eigen_flops() + self.g_repr.eigen_flops()

    @property
    def memory_cost(self) -> float:
        """Packed storage cost proxy (alternative balancing objective)."""
        return float(self.a_repr.packed_numel) + float(self.g_repr.packed_numel)

    def factor_repr(self, which: str) -> FactorRepr:
        return self.a_repr if which == "a" else self.g_repr


@dataclass
class LayerWorkGroups:
    """One layer's worker roles, as :func:`assign_workers` places them."""

    layer: LayerShapeInfo
    eigen_worker_a: int
    eigen_worker_g: int
    grad_workers: Tuple[int, ...]
    receiver_map: Dict[int, Tuple[int, ...]]  # grad worker -> receivers it broadcasts to
    #: Rank that forms the cached eigenvalue outer product ``1 / (v_G v_Aᵀ + γ)``
    #: and ships it with the eigen round; ``None`` = every gradient worker forms
    #: its own from the decompositions it receives (g·a flops instead of g·a
    #: elements on the wire).
    outer_worker: Optional[int] = None

    def is_grad_worker(self, rank: int) -> bool:
        return rank in self.grad_workers

    def receivers_of(self, rank: int) -> Tuple[int, ...]:
        return self.receiver_map.get(rank, ())


@dataclass(frozen=True)
class WirePolicy:
    """How K-FAC state is stored and travels: the knobs that size a tensor without moving it."""

    precision: PrecisionPolicy = PrecisionPolicy.fp32()
    compute_eigen_outer: bool = True  # cache (and, where one rank forms it, ship) the eigenvalue outer product

    def factor_bytes(self, layer: LayerShapeInfo, which: str = "ag") -> int:
        """Bytes of ``layer``'s stored running ``"a"`` / ``"g"`` factor, or both (packed: one triangle of a dense one, O(F) for a diagonal one)."""
        numel = sum(layer.factor_repr(one).packed_numel for one in which)
        return numel * np.dtype(self.precision.factor_dtype).itemsize

    def eigen_bytes(self, layer: LayerShapeInfo) -> int:
        """Bytes of ``layer``'s eigen state on one holder: eigenvalues, stored eigenvectors, cached outer product."""
        numel = layer.a_repr.packed_eigen_numel + layer.g_repr.packed_eigen_numel
        if self.compute_eigen_outer:
            numel += layer.a_dim * layer.g_dim
        return numel * np.dtype(self.precision.inverse_dtype).itemsize


#: One factor allreduce as the bucket manager takes it: ``(key, wire shape, dtype)``.
FactorSpec = Tuple[str, Tuple[int, ...], np.dtype]


@dataclass(frozen=True)
class StepActions:
    """What one step does: the layers that ``fold`` their factors and ``refresh`` their decompositions.

    Both are layer names in registration order; the rounds they post are read
    off the plan the actions came from (:meth:`DistributionPlan.actions`).  A
    drift revision (:mod:`repro.kfac.scheduling.drift`) is
    ``dataclasses.replace`` of either tuple: the rounds follow.
    """

    step: int
    fold: Tuple[str, ...]
    refresh: Tuple[str, ...]
    plan: "DistributionPlan" = field(repr=False, compare=False)

    def factor_round(self, hooked: bool = False) -> Tuple[FactorSpec, ...]:
        """The window allreduces of ``fold``; ``hooked`` in reverse layer order, the order backward produces them."""
        layers = reversed(self.fold) if hooked else self.fold
        return tuple(spec for name in layers for spec in self.plan.factor_round[name])

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

    Every mapping is keyed by layer name -- or ``(layer name, "a" | "g")`` for
    per-factor entries -- in registration order, so a step that refreshes a
    subset of layers concatenates those layers' entries and keeps the order.
    Ranks in ``decomposers`` / ``*_holders`` are sorted tuples.
    ``refresh_offsets`` is the phase of each layer's decomposition in the
    interval (:func:`~repro.kfac.assignment.staggered_refresh_offsets`);
    :meth:`actions` turns the two cadences and the offsets into what a step does.
    ``bucket_cap_mb`` is the fused-buffer cap every round is bucketed under
    (``"auto"`` already resolved): the engine's scheduler and :meth:`messages`
    both read it.
    """

    scheme: str  # "MEM-OPT", "HYBRID-OPT" or "COMM-OPT": which one grad_worker_frac selects
    world_size: int
    policy: WirePolicy
    groups: Dict[str, LayerWorkGroups]  # placement
    decomposers: Dict[Tuple[str, str], Tuple[int, ...]]  # ranks that eigendecompose the factor
    factor_holders: Dict[Tuple[str, str], Tuple[int, ...]]  # ranks that keep the running factor
    eigen_holders: Dict[str, Tuple[int, ...]]  # ranks that keep the layer's eigen state
    factor_round: Dict[str, Tuple[FactorSpec, ...]]  # world-wide window allreduces
    eigen_round: Dict[str, Tuple[BroadcastSpec, ...]]  # after a refresh
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

    def base_updates(self, steps: int) -> Tuple[int, int]:
        """``(folds, decompositions)`` the base cadence performs over all layers in its first ``steps`` steps."""
        performed = [self.actions(step) for step in range(steps)]
        return sum(len(actions.fold) for actions in performed), sum(len(actions.refresh) for actions in performed)

    def factor_bytes_per_rank(self) -> np.ndarray:
        """Running-factor bytes each rank holds."""
        per_rank = np.zeros(self.world_size, dtype=np.int64)
        for (name, which), holders in self.factor_holders.items():
            per_rank[list(holders)] += self.policy.factor_bytes(self.groups[name].layer, which)
        return per_rank

    def eigen_bytes_per_rank(self) -> np.ndarray:
        """Eigen-state bytes (decompositions + cached outer product) each rank holds."""
        per_rank = np.zeros(self.world_size, dtype=np.int64)
        for name, holders in self.eigen_holders.items():
            per_rank[list(holders)] += self.policy.eigen_bytes(self.groups[name].layer)
        return per_rank

    def messages(
        self, hooked: bool = False, step: Optional[int] = None
    ) -> Dict[str, List[Tuple[Tuple[int, ...], int]]]:
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
        offset is 0), one gradient round.  ``hooked`` is the armed gradient
        pipeline, which buckets the factor allreduces in reverse layer order
        (the order backward produces them).  A group of one exchanges nothing
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
            out["factor"] = [(everyone, bucket.nbytes) for bucket in buckets.build(interval[0].factor_round(hooked))]
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
    layers: Sequence[LayerShapeInfo], world_size: int, grad_worker_frac: float, balance: str = "compute"
) -> Dict[str, LayerWorkGroups]:
    """Eigen workers, gradient workers and receiver groups of every layer.

    A deterministic function of its arguments, so every rank computes the
    identical placement without communication.  ``balance`` is the LPT job
    cost: ``"compute"`` the eigen flops, ``"memory"`` the packed storage.

    * Every rank a gradient worker (COMM-OPT, section 2.2.2): the A and G
      factors are placed separately by LPT, doubling worker utilisation; the
      decompositions go world-wide, so every rank forms the eigenvalue outer
      product itself and no gradient is broadcast.
    * Otherwise (HYBRID-OPT, Figure 4; MEM-OPT is its blocks of one): whole
      layers are placed by LPT and the ranks are partitioned into fixed
      blocks of :func:`num_grad_workers`.  A layer's gradient workers are the
      block containing its eigen worker -- only they receive and keep its
      eigen state, the tunable memory footprint of section 3.1 -- and the
      eigen worker forms the outer product and ships it to them.  Each
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
        groups[layer.name] = LayerWorkGroups(
            layer, eigen_worker, eigen_worker, grad_workers, receiver_map, outer_worker=eigen_worker
        )
    return groups


# A spec names one logical tensor; the collective engine fuses the specs that
# share a (src, group) channel into capped buckets, in list order.
def _eigen_round(group: LayerWorkGroups, policy: WirePolicy) -> Tuple[BroadcastSpec, ...]:
    """Messages that take one layer's fresh eigen state from its eigen workers to its gradient workers.

    Each decomposition travels packed (eigenvalues then stored eigenvectors,
    in the inverse dtype so fp64 / fp16 are not truncated on the wire),
    followed by the cached outer product when one rank forms it for the
    group.  A group of one moves nothing: its only member computed the
    decompositions and keeps them exactly as they are.  (Packing and
    unpacking them anyway would copy all eigen state twice and re-lay the
    eigenvectors out row-major, which shifts BLAS rounding in every later
    precondition.)
    """
    members = group.grad_workers
    if len(members) <= 1:
        return ()
    layer = group.layer
    dtype = np.dtype(policy.precision.inverse_dtype)
    specs = []
    for which, src in (("a", group.eigen_worker_a), ("g", group.eigen_worker_g)):
        # Packed payload: n + n*n for dense, just n for diagonal factors.
        shape = (layer.factor_repr(which).packed_eigen_numel,)
        specs.append(BroadcastSpec(f"{layer.name}/eigen_{which}", src, members, shape, dtype))
    if policy.compute_eigen_outer and group.outer_worker is not None:
        shape = (layer.g_dim, layer.a_dim)
        specs.append(BroadcastSpec(f"{layer.name}/inverse_outer", group.outer_worker, members, shape, dtype))
    return tuple(specs)


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
    policy: WirePolicy,
    factors_read_everywhere: bool,
    eigen_free: Iterable[str],
    factor_update_freq: int,
    inv_update_freq: int,
    bucket_cap_mb: float,
) -> DistributionPlan:
    """The :class:`DistributionPlan` of ``layers``, its rounds bucketed under ``bucket_cap_mb``.

    :meth:`~repro.kfac.KFACConfig.distribution_plan` is the one caller: it
    turns the hyperparameters into these arguments.  Placement is
    :func:`assign_workers`; each factor is decomposed by its eigen worker.  A
    running factor is held where a plan reads it: by the ranks that decompose
    it; by the layer's gradient workers when the layer is in ``eigen_free``
    (its solve strategy reads the factors instead of an eigenbasis --
    ``inverse``, ``cg`` -- so nothing is decomposed or broadcast for it); and
    by every rank when ``factors_read_everywhere`` (``drift_tol > 0`` derives
    the refresh plan from factor drift on every rank, ``damping_pi_correction``
    takes both traces wherever it damps).  Factors are allreduced world-wide as
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
    groups = assign_workers(layers, world_size, grad_worker_frac, balance)
    eigen_free = frozenset(eigen_free)
    everyone = tuple(range(world_size))
    factor_dtype = np.dtype(policy.precision.factor_dtype)
    offsets = staggered_refresh_offsets(
        {layer.name: layer.eigen_cost for layer in layers}, world_size, factor_update_freq, inv_update_freq
    )
    plan = DistributionPlan(
        scheme, world_size, policy, groups, {}, {}, {}, {}, {}, {},
        int(factor_update_freq), int(inv_update_freq), offsets, float(bucket_cap_mb),
    )  # fmt: skip
    for layer in layers:
        name, group = layer.name, groups[layer.name]
        needs_eigen = name not in eigen_free
        for which, eigen_worker in (("a", group.eigen_worker_a), ("g", group.eigen_worker_g)):
            plan.decomposers[name, which] = (eigen_worker,) if needs_eigen else ()
            if factors_read_everywhere:
                plan.factor_holders[name, which] = everyone
            else:
                plan.factor_holders[name, which] = plan.decomposers[name, which] if needs_eigen else group.grad_workers
        plan.eigen_holders[name] = group.grad_workers if needs_eigen else ()
        plan.factor_round[name] = tuple(
            (f"{name}/factor_{which}", layer.factor_repr(which).comm_shape(), factor_dtype) for which in ("a", "g")
        )
        plan.eigen_round[name] = _eigen_round(group, policy) if needs_eigen else ()
        plan.gradient_round[name] = _gradient_round(group)
    return plan
