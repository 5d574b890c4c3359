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

Each strategy is one class that *publishes plans* and executes nothing
itself: worker assignment (:meth:`DistributionStrategy.assign`), which factors
this rank decomposes (:meth:`DistributionStrategy.local_eigen_tasks`), and the
collectives to run as lists of specs
(:meth:`DistributionStrategy.factor_allreduce_entries`,
:meth:`DistributionStrategy.eigen_broadcast_specs`,
:meth:`DistributionStrategy.gradient_broadcast_specs`), with
:meth:`DistributionStrategy.finalize_local_eigen` /
:meth:`DistributionStrategy.finalize_eigen` as the hooks that run once the
decompositions / broadcasts of a layer landed.  :class:`~repro.kfac.KFAC`
batches the decompositions through its kernel backend and runs every spec
through one :class:`~repro.distributed.collectives.OverlapScheduler`.

The plans also say where K-FAC state lives.  Eigen state is kept by a layer's
gradient workers (the paper's tunable footprint).  A *running factor* is kept
only by the ranks whose plan reads it -- with the default knobs the one rank
that :meth:`~DistributionStrategy.local_eigen_tasks` makes decompose it
(:meth:`repro.kfac.KFAC.holds_factor` is the rule): the factor stage
allreduces the ranks' window averages and the average is folded there, so no
rank keeps a running factor it never reads, and a scheme that only overrides
``local_eigen_tasks`` moves the factors with the decompositions.  A new
distribution scheme is a new subclass; the preconditioner never branches on
the scheme itself.  Constructing the base class dispatches to the matching
subclass from ``grad_worker_frac``, so ``DistributionStrategy(world, frac)``
keeps working as a factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributed.collectives import BroadcastSpec
from .assignment import greedy_lpt_assignment
from .factors import FactorRepr
from .kmath import EigenDecomposition, eigenvalue_outer_product

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .layers import KFACLayer
    from .preconditioner import KFAC

__all__ = [
    "LayerShapeInfo",
    "LayerWorkGroups",
    "DistributionStrategy",
    "CommOptStrategy",
    "HybridOptStrategy",
    "MemOptStrategy",
    "pack_eigen",
    "unpack_eigen",
    "unpack_eigen_repr",
]


def pack_eigen(eigen: EigenDecomposition, dtype=np.float32) -> np.ndarray:
    """Pack an eigen decomposition into one flat buffer in ``dtype``.

    The buffer is the eigenvalues followed by the stored eigenvectors —
    ``n + n*n`` elements for a dense factor, ``n`` for a diagonal one (the
    identity eigenbasis is implicit and never hits the wire) and
    ``n + num_blocks*bs²`` for a block-diagonal stack.
    """
    parts = [eigen.eigenvalues.astype(dtype).reshape(-1)]
    if eigen.eigenvectors is not None:
        parts.append(eigen.eigenvectors.astype(dtype).reshape(-1))
    return np.concatenate(parts)


def unpack_eigen(packed: np.ndarray, n: int, dtype=np.float32) -> EigenDecomposition:
    """Inverse of :func:`pack_eigen` for a *dense* factor of dimension ``n``."""
    if packed.size != n + n * n:
        raise ValueError(f"packed eigen buffer has {packed.size} elements, expected {n + n * n}")
    eigenvalues = packed[:n].astype(dtype)
    eigenvectors = packed[n:].reshape(n, n).astype(dtype)
    return EigenDecomposition(eigenvectors=eigenvectors, eigenvalues=eigenvalues)


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

    @property
    def eigen_worker(self) -> int:
        """Rank responsible for the G decomposition and the cached eigenvalue outer product."""
        return self.eigen_worker_g

    def is_grad_worker(self, rank: int) -> bool:
        return rank in self.grad_workers

    def receivers_of(self, rank: int) -> Tuple[int, ...]:
        return self.receiver_map.get(rank, ())

    def grad_worker_for(self, rank: int) -> int:
        """The gradient worker that sends the preconditioned gradient to ``rank``."""
        if rank in self.grad_workers:
            return rank
        for worker, receivers in self.receiver_map.items():
            if rank in receivers:
                return worker
        raise KeyError(f"rank {rank} is neither a gradient worker nor a receiver")

    def broadcast_group_size(self) -> int:
        """Size of each preconditioned-gradient broadcast group (worker + receivers)."""
        if not self.receiver_map:
            return 1
        return 1 + max(len(r) for r in self.receiver_map.values())


def _packed_eigen_specs(
    layer: "KFACLayer",
    sources: Sequence[Tuple[str, int]],
    group: Optional[Tuple[int, ...]],
    pre: "KFAC",
) -> List[BroadcastSpec]:
    """Specs moving ``layer``'s packed eigen decompositions within ``group``.

    One spec per ``(which, src)`` in ``sources``.  The source packs when its
    bucket is filled (eigenvalues then stored eigenvectors, in the precision
    policy's inverse dtype so fp64/fp16 are not truncated on the wire); every
    member, the source included, installs the unpacked decomposition into
    ``layer.eigen_a`` / ``layer.eigen_g`` on completion.

    A group of one publishes no spec: its only member computed the
    decompositions and keeps them exactly as they are.  (Packing and unpacking
    them anyway would copy all eigen state twice and re-lay the eigenvectors
    out row-major, which shifts BLAS rounding in every later precondition.)
    """
    dtype = np.dtype(pre.precision.inverse_dtype)
    alone = (pre.world_size if group is None else len(group)) <= 1
    specs: List[BroadcastSpec] = []
    for which, src in sources:
        is_src = pre.rank == src
        if is_src and (layer.eigen_a if which == "a" else layer.eigen_g) is None:
            raise RuntimeError("source rank does not hold the eigen decomposition to broadcast")
        if alone:
            continue
        repr = layer.factor_repr(which)

        def payload(which: str = which) -> np.ndarray:
            return pack_eigen(layer.eigen_a if which == "a" else layer.eigen_g, dtype)

        def install(flat: np.ndarray, which: str = which, repr: FactorRepr = repr) -> None:
            decomposition = unpack_eigen_repr(flat, repr, dtype)
            if which == "a":
                layer.eigen_a = decomposition
            else:
                layer.eigen_g = decomposition

        specs.append(
            BroadcastSpec(
                key=f"{layer.name}/eigen_{which}",
                src=src,
                group=group,
                # Packed payload: n + n*n for dense, just n for diagonal factors.
                shape=(repr.packed_eigen_numel,),
                dtype=dtype,
                payload=payload if is_src else None,
                on_complete=install,
            )
        )
    return specs


def _eigen_outer(layer: "KFACLayer", pre: "KFAC") -> Optional[np.ndarray]:
    """The cached ``1 / (v_G v_Aᵀ + γ)`` for ``layer``'s current decompositions, if configured."""
    if not pre.compute_eigen_outer:
        return None
    return eigenvalue_outer_product(
        layer.eigen_a, layer.eigen_g, pre.damping, dtype=pre.precision.inverse_dtype, pi=pre.damping_pi(layer)
    )


class DistributionStrategy:
    """Base class and factory for per-layer work distribution schemes.

    ``DistributionStrategy(world_size, grad_worker_frac, balance)`` returns
    the subclass matching the fraction (COMM-OPT / HYBRID-OPT / MEM-OPT); a
    custom scheme subclasses this and implements :meth:`assign`,
    :meth:`local_eigen_tasks`, :meth:`eigen_broadcast_specs` and
    :meth:`gradient_broadcast_specs` (plus the two ``finalize_*`` hooks where
    it derives state from the decompositions).
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

    # ------------------------------------------------------------- factories
    @classmethod
    def mem_opt(cls, world_size: int) -> "DistributionStrategy":
        """MEM-OPT: a single gradient worker per layer."""
        return DistributionStrategy(world_size, grad_worker_frac=1.0 / world_size)

    @classmethod
    def comm_opt(cls, world_size: int) -> "DistributionStrategy":
        """COMM-OPT: every rank is a gradient worker."""
        return DistributionStrategy(world_size, grad_worker_frac=1.0)

    @classmethod
    def hybrid(cls, world_size: int, grad_worker_frac: float = 0.5) -> "DistributionStrategy":
        """HYBRID-OPT with an arbitrary gradient-worker fraction."""
        return DistributionStrategy(world_size, grad_worker_frac=grad_worker_frac)

    # ------------------------------------------------------------ properties
    @property
    def num_grad_workers(self) -> int:
        """``max(1, grad_worker_frac * world_size)`` as defined in section 3.1."""
        return max(1, int(round(self.grad_worker_frac * self.world_size)))

    # ------------------------------------------------------------ assignment
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

    # ------------------------------------------------------------ eigen plan
    def local_eigen_tasks(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> List[str]:
        """Which of ``layer``'s factors (``"a"``/``"g"``) this rank decomposes.

        The preconditioner collects every (layer, factor) pair this rank
        owns, groups the dense factors by shape, and decomposes each group in
        one :meth:`~repro.kfac.kernels.KernelBackend.batched_symmetric_eigen`
        call, installing the results in ``layer.eigen_a`` / ``layer.eigen_g``.
        The answer must not change between steps: it is also what makes this
        rank hold those running factors (:meth:`repro.kfac.KFAC.holds_factor`).
        """
        raise NotImplementedError

    def finalize_local_eigen(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> None:
        """Hook run once per due layer after its local decompositions are installed.

        E.g. HYBRID-OPT's eigen worker forms the cached eigenvalue outer
        product here, before broadcasting it to its block.
        """

    # ---------------------------------------------------- factor allreduces
    def factor_allreduce_entries(
        self, layer: "KFACLayer", pre: "KFAC"
    ) -> List[Tuple[str, Tuple[int, ...], np.dtype, Callable[[], np.ndarray], Callable[[np.ndarray], None]]]:
        """Per-layer factor-allreduce plan: ``(key, shape, dtype, pack, install)``.

        The base plan allreduce-averages the *window averages* of both
        Kronecker factors over the whole world, honoring
        ``pre.triangular_comm`` packing — shared by the ``KFAC.step()``-time
        schedule and the backward-hook gradient pipeline, which differ only
        in *when* the entries are posted.  ``pack`` returns this rank's
        window average (:meth:`KFAC.factor_window`, taken once per pending
        step); ``install`` collects the averaged pair and, if every rank
        alike finds it finite (:meth:`KFAC.accept_factor_window`), folds each
        half into the running factor with :meth:`KFACLayer.fold_factor` — on
        the ranks that hold that factor (:meth:`KFAC.holds_factor`) and
        nowhere else.  The running average is linear, so folding the averaged
        window once is the estimator every rank used to fold for itself, and
        a running factor exists only where a plan reads it.  Structured
        factors travel in their packed form — O(F) bytes for a diagonal
        factor, never the dense F² — and the bucket manager fuses on the
        flattened packed sizes.  A topology-aware strategy can override this
        to route factor traffic over sub-groups.
        """
        dtype = np.dtype(pre.precision.factor_dtype)
        received: Dict[str, np.ndarray] = {}

        def make_pack(index: int, repr: FactorRepr) -> Callable[[], np.ndarray]:
            def pack() -> np.ndarray:
                return repr.pack_comm(pre.factor_window(layer)[index], pre.triangular_comm)

            return pack

        def make_install(which: str) -> Callable[[np.ndarray], None]:
            def install(array: np.ndarray) -> None:
                received[which] = array
                if len(received) < 2:
                    return
                if pre.accept_factor_window(layer, received["a"], received["g"]):
                    for held in ("a", "g"):
                        if pre.holds_factor(layer.name, held):
                            window = layer.factor_repr(held).unpack_comm(received[held], pre.triangular_comm)
                            layer.fold_factor(held, window, pre.factor_decay)
                received.clear()

            return install

        entries = []
        for index, which in enumerate(("a", "g")):
            repr = layer.factor_repr(which)
            entries.append(
                (
                    f"{layer.name}/factor_{which}",
                    repr.comm_shape(pre.triangular_comm),
                    dtype,
                    make_pack(index, repr),
                    make_install(which),
                )
            )
        return entries

    # -------------------------------------------------------- broadcast plans
    # The preconditioner collects one deterministic schedule of BroadcastSpecs
    # across all layers and hands it to its OverlapScheduler, which fuses
    # specs sharing a (src, group) channel into capped buckets and pipelines
    # them.  A spec names what moves; a rank that needs no message for a
    # layer (it already holds the value, or must not keep it) returns none.
    def eigen_broadcast_specs(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> List[BroadcastSpec]:
        """Specs distributing ``layer``'s fresh eigen state to its gradient workers.

        Also applies this rank's local memory plan (e.g. dropping eigen state
        on gradient receivers).
        """
        raise NotImplementedError

    def finalize_eigen(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> None:
        """Hook run on gradient workers after every eigen-broadcast spec of ``layer`` completed."""

    def gradient_broadcast_specs(
        self,
        group: LayerWorkGroups,
        value: Optional[np.ndarray],
        pre: "KFAC",
        install: "Callable[[np.ndarray], None]",
    ) -> List[BroadcastSpec]:
        """Specs sending one layer's preconditioned gradient from its worker(s) to this rank.

        ``install`` receives the layer's preconditioned gradient — either
        immediately (this rank preconditioned it, or needs no message) or as
        the ``on_complete`` of the returned spec.
        """
        raise NotImplementedError


class CommOptStrategy(DistributionStrategy):
    """COMM-OPT: every rank caches every eigen decomposition (section 2.2.2).

    Individual factors (A and G separately) are distributed across ranks for
    the eigen decompositions, doubling worker utilisation; the decompositions
    are broadcast world-wide, so preconditioning is local on every rank and no
    per-iteration gradient broadcast is needed.
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
            groups[layer.name] = LayerWorkGroups(
                layer=layer,
                eigen_worker_a=result.assignment[(layer.name, "A")],
                eigen_worker_g=result.assignment[(layer.name, "G")],
                grad_workers=all_ranks,
                receiver_map={},
            )
        return groups

    def local_eigen_tasks(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> List[str]:
        # The A and G factors of one layer may live on different ranks.
        tasks: List[str] = []
        if pre.rank == group.eigen_worker_a:
            tasks.append("a")
        if pre.rank == group.eigen_worker_g:
            tasks.append("g")
        return tasks

    def eigen_broadcast_specs(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> List[BroadcastSpec]:
        # The A and G decompositions come from (possibly) different source
        # ranks and go to the whole world.
        sources = (("a", group.eigen_worker_a), ("g", group.eigen_worker_g))
        return _packed_eigen_specs(layer, sources, None, pre)

    def finalize_eigen(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> None:
        # Every rank caches the decompositions anyway, so each forms the
        # eigenvalue outer product locally instead of receiving it.
        layer.inverse_outer = _eigen_outer(layer, pre)

    def gradient_broadcast_specs(
        self,
        group: LayerWorkGroups,
        value: Optional[np.ndarray],
        pre: "KFAC",
        install: Callable[[np.ndarray], None],
    ) -> List[BroadcastSpec]:
        install(value)  # every rank preconditioned locally; nothing to send
        return []


class HybridOptStrategy(DistributionStrategy):
    """HYBRID-OPT: a tunable gradient-worker subset per layer (Figure 4).

    Whole layers are distributed; a layer's eigen worker handles both factors
    and is one of its gradient workers.  Ranks are partitioned into fixed
    blocks of ``num_grad_workers`` processes (the dashed red box of Figure 4);
    the gradient workers of a layer are the block containing its eigen worker,
    and each gradient worker broadcasts the preconditioned gradient to its
    share of the remaining ranks, so the broadcasts are small and concurrent.
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
            )
        return groups

    def local_eigen_tasks(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> List[str]:
        return ["a", "g"] if pre.rank == group.eigen_worker else []

    def finalize_local_eigen(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> None:
        # The eigen worker caches the eigenvalue outer product before
        # broadcasting it to its block.
        if pre.rank == group.eigen_worker:
            layer.inverse_outer = _eigen_outer(layer, pre)

    def eigen_broadcast_specs(self, layer: "KFACLayer", group: LayerWorkGroups, pre: "KFAC") -> List[BroadcastSpec]:
        # Only the gradient workers receive (and keep) the eigen decompositions
        # — this is exactly the tunable memory footprint of section 3.1.
        if not group.is_grad_worker(pre.rank):
            layer.clear_eigen()
            return []
        bcast_group = group.grad_workers
        src = group.eigen_worker
        # One eigen worker holds both decompositions; they go to its block.
        specs = _packed_eigen_specs(layer, (("a", src), ("g", src)), bcast_group, pre)
        if not pre.compute_eigen_outer:
            layer.inverse_outer = None
        elif len(bcast_group) > 1:  # a sole gradient worker keeps its locally computed outer product

            def install_outer(outer: np.ndarray) -> None:
                # Copy out of the fused bucket: this array outlives the
                # broadcast (kept until the next inverse update), and a
                # view would pin the whole bucket buffer in memory.
                layer.inverse_outer = outer.copy()

            specs.append(
                BroadcastSpec(
                    key=f"{layer.name}/inverse_outer",
                    src=src,
                    group=bcast_group,
                    shape=(layer.g_dim, layer.a_dim),
                    dtype=np.dtype(pre.precision.inverse_dtype),
                    payload=(lambda: layer.inverse_outer) if pre.rank == src else None,
                    on_complete=install_outer,
                )
            )
        return specs

    def gradient_broadcast_specs(
        self,
        group: LayerWorkGroups,
        value: Optional[np.ndarray],
        pre: "KFAC",
        install: Callable[[np.ndarray], None],
    ) -> List[BroadcastSpec]:
        worker = group.grad_worker_for(pre.rank)
        members = (worker,) + group.receivers_of(worker)
        if len(members) == 1:
            install(value)
            return []
        layer = group.layer
        return [
            BroadcastSpec(
                key=f"{layer.name}/precond_grad",
                src=worker,
                group=members,
                # precondition() returns the float32 bias-folded matrix (g_dim, a_dim)
                shape=(layer.g_dim, layer.a_dim),
                dtype=np.dtype(np.float32),
                payload=(lambda: value) if pre.rank == worker else None,
                on_complete=install,
            )
        ]


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
