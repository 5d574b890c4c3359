"""Distribution strategies: MEM-OPT, COMM-OPT and HYBRID-OPT (paper section 3.1).

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

A strategy sees layer *shapes* and a :class:`WirePolicy`, never the
preconditioner or a live layer, and :meth:`DistributionStrategy.plan` returns
**data, the same on every rank**: a :class:`DistributionPlan` naming which
rank decomposes which factor, which ranks hold each running factor and each
layer's eigen state, and the three communication rounds of one update as
unbound specs -- ``(key, shape, dtype)`` per factor allreduce, a
:class:`~repro.distributed.collectives.BroadcastSpec` without ``payload`` /
``on_complete`` per eigen and preconditioned-gradient message.  The schedule
is global (the collective engine skips the channels that do not contain the
local rank), so nothing here branches on a rank.  :class:`~repro.kfac.KFAC`
attaches the arrays to the specs and posts them; the cost and memory models
price the same specs and sum the same holders.

The three built-in schemes differ only in :meth:`DistributionStrategy.assign`
(placement).  A new scheme is one subclass: placement (``assign``), who
decomposes (``decomposers``) and what moves (``eigen_round`` /
``gradient_round``), each with a default derived from the placement.
Constructing the base class dispatches to the matching subclass from
``grad_worker_frac``, so ``DistributionStrategy(world, frac)`` keeps working
as a factory.
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
    "DistributionStrategy",
    "CommOptStrategy",
    "HybridOptStrategy",
    "MemOptStrategy",
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
    """Shape information a strategy needs about one K-FAC-preconditioned layer.

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
    """Per-layer worker roles for one distribution strategy instance."""

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

    scheme: str  # the strategy's name, e.g. "HYBRID-OPT"
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


class DistributionStrategy:
    """Base class and factory for per-layer work distribution schemes.

    ``DistributionStrategy(world_size, grad_worker_frac, balance)`` returns
    the subclass matching the fraction (COMM-OPT / HYBRID-OPT / MEM-OPT); a
    custom scheme subclasses this and implements :meth:`assign`, overriding
    :meth:`decomposers`, :meth:`eigen_round` or :meth:`gradient_round` where
    the defaults derived from the placement are not what it wants.
    """

    name: str = "CUSTOM"

    def __new__(cls, world_size: int = 1, grad_worker_frac: float = 1.0, balance: str = "compute"):
        if cls is DistributionStrategy:
            try:
                num_gw = max(1, int(round(float(grad_worker_frac) * int(world_size))))
            except (TypeError, ValueError):
                num_gw = 1  # defer the error to __init__ validation
            if num_gw >= world_size:
                cls = CommOptStrategy
            elif num_gw == 1:
                cls = MemOptStrategy
            else:
                cls = HybridOptStrategy
        return super().__new__(cls)

    def __init__(self, world_size: int, grad_worker_frac: float = 1.0, balance: str = "compute") -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if not 0.0 < grad_worker_frac <= 1.0:
            raise ValueError("grad_worker_frac must be in (0, 1]")
        if balance not in ("compute", "memory"):
            raise ValueError("balance must be 'compute' or 'memory'")
        self.world_size = int(world_size)
        self.grad_worker_frac = float(grad_worker_frac)
        self.balance = balance
        self._check_consistency()

    def _check_consistency(self) -> None:
        """Subclass hook: reject a ``grad_worker_frac`` that contradicts the class.

        The factory dispatch always satisfies these; the checks protect
        *direct* subclass construction, where class identity, runtime behavior
        and the serialized config would otherwise silently disagree.
        """

    # ------------------------------------------------------------ properties
    @property
    def num_grad_workers(self) -> int:
        """``max(1, grad_worker_frac * world_size)`` as defined in section 3.1."""
        return max(1, int(round(self.grad_worker_frac * self.world_size)))

    # ------------------------------------------------------------- placement
    def _layer_costs(self, layers: Sequence[LayerShapeInfo]) -> Dict[str, float]:
        if self.balance == "memory":
            return {layer.name: layer.memory_cost for layer in layers}
        return {layer.name: layer.eigen_cost for layer in layers}

    def assign(self, layers: Sequence[LayerShapeInfo]) -> Dict[str, LayerWorkGroups]:
        """Assign eigen workers, gradient workers and receiver groups for every layer.

        The assignment must be a deterministic function of the layer list and
        the strategy parameters, so every rank computes the identical plan
        without communication (exactly how the reference implementation
        behaves).
        """
        raise NotImplementedError

    # ------------------------------------------------------- who decomposes
    def decomposers(self, group: LayerWorkGroups) -> Dict[str, Tuple[int, ...]]:
        """Ranks that eigendecompose the layer's ``"a"`` and ``"g"`` factor: by default its eigen workers.

        With the default knobs these are also the ranks that hold the running
        factor, so a scheme that moves the decompositions moves the factors
        with them.
        """
        return {"a": (group.eigen_worker_a,), "g": (group.eigen_worker_g,)}

    # ----------------------------------------------------------- what moves
    # A spec names one logical tensor; the collective engine fuses the specs
    # that share a (src, group) channel into capped buckets, in list order.
    def eigen_round(self, group: LayerWorkGroups, policy: WirePolicy) -> List[BroadcastSpec]:
        """Messages that take one layer's fresh eigen state from its eigen workers to its gradient workers.

        Each decomposition travels packed (eigenvalues then stored
        eigenvectors, in the inverse dtype so fp64 / fp16 are not truncated on
        the wire), followed by the cached outer product when one rank forms it
        for the group.  A group of one moves nothing: its only member computed
        the decompositions and keeps them exactly as they are.  (Packing and
        unpacking them anyway would copy all eigen state twice and re-lay the
        eigenvectors out row-major, which shifts BLAS rounding in every later
        precondition.)
        """
        members = group.grad_workers
        if len(members) <= 1:
            return []
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
        return specs

    def gradient_round(self, group: LayerWorkGroups) -> List[BroadcastSpec]:
        """Messages that take one layer's preconditioned gradient from each gradient worker to its receivers."""
        layer = group.layer
        return [
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
        ]

    # -------------------------------------------------------------- the plan
    def plan(
        self,
        layers: Sequence[LayerShapeInfo],
        policy: WirePolicy = WirePolicy(),
        factors_read_everywhere: bool = False,
        eigen_free: Iterable[str] = (),
        factor_update_freq: int = 1,
        inv_update_freq: int = 1,
        bucket_cap_mb: float = 25.0,
    ) -> DistributionPlan:
        """The :class:`DistributionPlan` of ``layers`` under this scheme, its rounds bucketed under ``bucket_cap_mb``.

        A running factor is held where a plan reads it: by the ranks that
        decompose it; by the layer's gradient workers when the layer is in
        ``eigen_free`` (its solve strategy reads the factors instead of an
        eigenbasis -- ``inverse``, ``cg`` -- so nothing is decomposed or
        broadcast for it); and by every rank when ``factors_read_everywhere``
        (``drift_tol > 0`` derives the refresh plan from factor drift on every
        rank, ``damping_pi_correction`` takes both traces wherever it damps).
        Factors are allreduced world-wide as the ranks' *window* averages, in
        the form they are stored in: a dense one as its packed triangle (section
        4.3's optimisation, here the only layout), a diagonal one as O(F) elements.
        The two cadences place each layer's refresh inside the interval
        (``refresh_offsets``) from its eigen cost alone -- not from ``assign``,
        so every scheme decomposes a layer on the same steps.
        """
        layers = list(layers)
        groups = self.assign(layers)
        eigen_free = frozenset(eigen_free)
        everyone = tuple(range(self.world_size))
        factor_dtype = np.dtype(policy.precision.factor_dtype)
        offsets = staggered_refresh_offsets(
            {layer.name: layer.eigen_cost for layer in layers}, self.world_size, factor_update_freq, inv_update_freq
        )
        plan = DistributionPlan(
            self.name, self.world_size, policy, groups, {}, {}, {}, {}, {}, {},
            int(factor_update_freq), int(inv_update_freq), offsets, float(bucket_cap_mb),
        )  # fmt: skip
        for layer in layers:
            name, group = layer.name, groups[layer.name]
            needs_eigen = name not in eigen_free
            decomposers = self.decomposers(group) if needs_eigen else {"a": (), "g": ()}
            for which in ("a", "g"):
                plan.decomposers[name, which] = tuple(sorted(set(decomposers[which])))
                if factors_read_everywhere:
                    plan.factor_holders[name, which] = everyone
                elif needs_eigen:
                    plan.factor_holders[name, which] = plan.decomposers[name, which]
                else:
                    plan.factor_holders[name, which] = tuple(sorted(group.grad_workers))
            plan.eigen_holders[name] = tuple(sorted(group.grad_workers)) if needs_eigen else ()
            plan.factor_round[name] = tuple(
                (f"{name}/factor_{which}", layer.factor_repr(which).comm_shape(), factor_dtype)
                for which in ("a", "g")
            )
            plan.eigen_round[name] = tuple(self.eigen_round(group, policy)) if needs_eigen else ()
            plan.gradient_round[name] = tuple(self.gradient_round(group))
        return plan


class CommOptStrategy(DistributionStrategy):
    """COMM-OPT: every rank caches every eigen decomposition (section 2.2.2).

    Individual factors (A and G separately) are distributed across ranks for
    the eigen decompositions, doubling worker utilisation; the decompositions
    are broadcast world-wide, so preconditioning is local on every rank, each
    forms the eigenvalue outer product itself and no per-iteration gradient
    broadcast is needed.
    """

    name = "COMM-OPT"

    def _check_consistency(self) -> None:
        if self.num_grad_workers < self.world_size:
            raise ValueError(
                f"COMM-OPT requires every rank to be a gradient worker, but grad_worker_frac="
                f"{self.grad_worker_frac} gives {self.num_grad_workers}/{self.world_size}; "
                "use DistributionStrategy(world_size, frac) to dispatch by fraction"
            )

    def assign(self, layers: Sequence[LayerShapeInfo]) -> Dict[str, LayerWorkGroups]:
        if not layers:
            return {}
        world = self.world_size
        factor_costs: Dict[Tuple[str, str], float] = {}
        for layer in layers:
            # Per-repr costs: identical to the historical dense n²/n³ for
            # dense factors, O(n) / O(num_blocks·bs³) for structured ones.
            if self.balance == "memory":
                factor_costs[(layer.name, "A")] = float(layer.a_repr.packed_numel)
                factor_costs[(layer.name, "G")] = float(layer.g_repr.packed_numel)
            else:
                factor_costs[(layer.name, "A")] = layer.a_repr.eigen_flops()
                factor_costs[(layer.name, "G")] = layer.g_repr.eigen_flops()
        result = greedy_lpt_assignment(factor_costs, world)
        all_ranks = tuple(range(world))
        groups: Dict[str, LayerWorkGroups] = {}
        for layer in layers:
            # The A and G factors of one layer may live on different ranks.
            groups[layer.name] = LayerWorkGroups(
                layer=layer,
                eigen_worker_a=result.assignment[(layer.name, "A")],
                eigen_worker_g=result.assignment[(layer.name, "G")],
                grad_workers=all_ranks,
                receiver_map={},
            )
        return groups


class HybridOptStrategy(DistributionStrategy):
    """HYBRID-OPT: a tunable gradient-worker subset per layer (Figure 4).

    Whole layers are distributed; a layer's eigen worker handles both factors,
    caches the eigenvalue outer product before broadcasting it to its block,
    and is one of the layer's gradient workers.  Ranks are partitioned into
    fixed blocks of ``num_grad_workers`` processes (the dashed red box of
    Figure 4); the gradient workers of a layer are the block containing its
    eigen worker -- only they receive (and keep) the eigen decompositions,
    which is exactly the tunable memory footprint of section 3.1 -- and each
    gradient worker broadcasts the preconditioned gradient to its share of the
    remaining ranks, so the broadcasts are small and concurrent.
    """

    name = "HYBRID-OPT"

    def _check_consistency(self) -> None:
        if not 1 < self.num_grad_workers < self.world_size:
            raise ValueError(
                f"HYBRID-OPT requires 1 < gradient workers < world size, but grad_worker_frac="
                f"{self.grad_worker_frac} gives {self.num_grad_workers}/{self.world_size}; "
                "use DistributionStrategy(world_size, frac) to dispatch by fraction"
            )

    def assign(self, layers: Sequence[LayerShapeInfo]) -> Dict[str, LayerWorkGroups]:
        if not layers:
            return {}
        world = self.world_size
        num_gw = min(self.num_grad_workers, world)
        layer_costs = self._layer_costs(layers)
        result = greedy_lpt_assignment(layer_costs, world)
        blocks = [list(range(start, min(start + num_gw, world))) for start in range(0, world, num_gw)]
        groups: Dict[str, LayerWorkGroups] = {}
        for layer in layers:
            eigen_worker = result.assignment[layer.name]
            block = blocks[eigen_worker // num_gw]
            grad_workers = tuple(block)
            receivers = [rank for rank in range(world) if rank not in block]
            receiver_map: Dict[int, List[int]] = {worker: [] for worker in grad_workers}
            for index, receiver in enumerate(receivers):
                worker = grad_workers[index % len(grad_workers)]
                receiver_map[worker].append(receiver)
            groups[layer.name] = LayerWorkGroups(
                layer=layer,
                eigen_worker_a=eigen_worker,
                eigen_worker_g=eigen_worker,
                grad_workers=grad_workers,
                receiver_map={worker: tuple(recv) for worker, recv in receiver_map.items()},
                outer_worker=eigen_worker,
            )
        return groups


class MemOptStrategy(HybridOptStrategy):
    """MEM-OPT: one gradient worker per layer — the minimum-memory endpoint.

    Algorithmically the HYBRID-OPT plan with a gradient-worker block of size
    one: the eigen worker is the sole gradient worker and broadcasts the
    preconditioned gradient to every other rank each iteration.
    """

    name = "MEM-OPT"

    def _check_consistency(self) -> None:
        if self.num_grad_workers != 1:
            raise ValueError(
                f"MEM-OPT requires exactly one gradient worker per layer, but grad_worker_frac="
                f"{self.grad_worker_frac} gives {self.num_grad_workers}/{self.world_size}; "
                "pass grad_worker_frac=1/world_size or use DistributionStrategy to dispatch"
            )
