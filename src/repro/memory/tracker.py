"""Per-rank memory accounting (Table 5 and the right axes of Figure 6): the memory read of a
:class:`~repro.kfac.KFACWorkloadSpec` and of its plan, ``spec.plan(world_size, grad_worker_frac)``.

The paper's "K-FAC memory overhead" is the per-GPU memory used by K-FAC state
on top of regular training: the running-average Kronecker factors plus each
layer's second-order state -- the eigen decompositions and the cached
eigenvalue outer product, or, on the default ``inverse`` path, the installed
damped inverses -- held only by the ranks that act as *gradient workers* for
a layer.  Two layouts of the factors are modelled:

* **this tree's**: a running factor lives only on the rank that decomposes it
  (the ranks allreduce their *window* factors and the average is folded where
  it is read) and a dense one is stored once, as the ``n(n+1)/2`` elements of
  its triangle, so per-rank state is ``(factors + eigen) / world`` at MEM-OPT.
  The plan's ``factor_bytes_per_rank()`` sums each factor on the rank that
  decomposes it, and its ``state_bytes_per_rank()`` the strategy's
  state of the layers a rank is a gradient worker of
  (``SolveStrategy.state_bytes``: eigen state, or damped inverses two to a
  buffer) -- one rule for every path, split by
  ``memory_usage()`` key into ``kfac_eigen`` / ``kfac_solver``;
* **the paper's**: every rank keeps every factor as a full ``n x n`` square,
  because its factor allreduce leaves a copy of the running average
  everywhere, so the overhead is ``factors + eigen / world`` and a linear
  function of ``grad_worker_frac`` -- Table 5's min/max columns and Figure 6's
  right axes.  :func:`paper_layout_bytes` is that figure, kept for the paper
  columns the benchmarks print beside this tree's.

Regular training memory is modelled as weights + gradients + optimizer state
(``spec.optimizer``), all at the spec's precision, + an activation estimate
proportional to the local batch size.  Activation memory depends on
implementation details we cannot reproduce byte-for-byte, so it is an
explicit, documented per-workload field (``spec.activation_bytes_per_sample``)
rather than a hidden constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..kfac.analysis import KFACWorkloadSpec

__all__ = [
    "MemoryBreakdown",
    "optimizer_state_multiplier",
    "paper_factor_bytes",
    "paper_layout_bytes",
    "memory_breakdown",
    "overhead_bytes",
    "max_local_batch_size",
]

MB = 1024 * 1024

#: How a per-rank figure is reduced to one rank: the busiest, the lightest, or the mean.
_RANKS = ("max", "min", "mean")


@dataclass
class MemoryBreakdown:
    """Bytes per rank for each memory category."""

    weights: int = 0
    gradients: int = 0
    optimizer_state: int = 0
    activations: int = 0
    kfac_factors: int = 0
    kfac_eigen: int = 0
    kfac_solver: int = 0

    @property
    def baseline_total(self) -> int:
        """Memory without K-FAC (the 'SGD Abs.' column of Table 5)."""
        return self.weights + self.gradients + self.optimizer_state + self.activations

    @property
    def kfac_overhead(self) -> int:
        """K-FAC state on top of baseline training."""
        return self.kfac_factors + self.kfac_eigen + self.kfac_solver

    @property
    def total(self) -> int:
        return self.baseline_total + self.kfac_overhead

    @property
    def overhead_percent(self) -> float:
        """Percentage increase of memory over the baseline (Table 5's delta column)."""
        if self.baseline_total == 0:
            return 0.0
        return 100.0 * self.kfac_overhead / self.baseline_total

    def as_megabytes(self) -> Dict[str, float]:
        return {
            "weights": self.weights / MB,
            "gradients": self.gradients / MB,
            "optimizer_state": self.optimizer_state / MB,
            "activations": self.activations / MB,
            "kfac_factors": self.kfac_factors / MB,
            "kfac_eigen": self.kfac_eigen / MB,
            "kfac_solver": self.kfac_solver / MB,
            "baseline_total": self.baseline_total / MB,
            "kfac_overhead": self.kfac_overhead / MB,
            "total": self.total / MB,
        }


def optimizer_state_multiplier(optimizer_name: str) -> int:
    """Number of parameter-sized state buffers kept per parameter by an optimizer."""
    lowered = optimizer_name.lower()
    if lowered in ("sgd",):
        return 1  # momentum buffer
    if lowered in ("adam", "adamw", "lamb", "fusedlamb"):
        return 2  # first and second moments
    raise ValueError(f"unknown optimizer {optimizer_name!r}")


def _check_rank(rank: str) -> None:
    if rank not in _RANKS:
        raise ValueError(f"rank must be one of {_RANKS}, got {rank!r}")


# ------------------------------------------------------------- K-FAC state
def paper_factor_bytes(spec: KFACWorkloadSpec) -> int:
    """What *every* rank holds in the paper's layout: all factors, every block square (``FactorRepr.square_numel``)."""
    return spec.dtype_bytes * sum(layer.factor_repr(which).square_numel for layer in spec.layers for which in "ag")


def paper_layout_bytes(spec: KFACWorkloadSpec, world_size: int, grad_worker_frac: float, rank: str = "max") -> int:
    """K-FAC bytes of one rank in the paper's layout: every factor square, on every rank, plus the rank's second-order state.

    ``rank`` is ``"max"``, ``"min"`` or ``"mean"``; the factors are the same
    on every rank, so it selects over the second-order state alone.
    """
    _check_rank(rank)
    state = spec.plan(world_size, grad_worker_frac).state_bytes_per_rank()
    return paper_factor_bytes(spec) + int(getattr(state, rank)())


# -------------------------------------------------------------- breakdowns
def memory_breakdown(
    spec: KFACWorkloadSpec,
    world_size: int,
    grad_worker_frac: Optional[float],
    local_batch_size: int = 0,
    rank: str = "max",
) -> MemoryBreakdown:
    """Memory breakdown of one rank running ``spec``.

    ``grad_worker_frac=None`` gives the baseline (no K-FAC) breakdown.
    ``rank`` selects ``"max"`` (the rank with the most K-FAC state, factors,
    eigen and solver state together), ``"min"`` or ``"mean"``.
    """
    _check_rank(rank)
    weights = spec.param_count * spec.dtype_bytes
    result = MemoryBreakdown(
        weights=weights,
        gradients=spec.gradient_bytes,
        optimizer_state=weights * optimizer_state_multiplier(spec.optimizer),
        activations=spec.activation_bytes_per_sample * local_batch_size,
    )
    if grad_worker_frac is None:
        return result
    plan = spec.plan(world_size, grad_worker_frac)
    state = (plan.factor_bytes_per_rank(), plan.state_bytes_per_rank("eigen"), plan.state_bytes_per_rank("solver"))
    if rank == "mean":
        selected = [int(per_rank.mean()) for per_rank in state]
    else:
        total = sum(state)
        index = int(total.argmax() if rank == "max" else total.argmin())
        selected = [int(per_rank[index]) for per_rank in state]
    result.kfac_factors, result.kfac_eigen, result.kfac_solver = selected
    return result


def overhead_bytes(spec: KFACWorkloadSpec, world_size: int, grad_worker_frac: float, rank: str = "max") -> int:
    """K-FAC overhead only (factors + eigen and solver state) of the selected rank."""
    return memory_breakdown(spec, world_size, grad_worker_frac, rank=rank).kfac_overhead


def max_local_batch_size(
    spec: KFACWorkloadSpec, memory_budget_bytes: int, world_size: int, grad_worker_frac: Optional[float]
) -> int:
    """Largest local batch size whose busiest rank fits in ``memory_budget_bytes`` (Table 4 setup)."""
    per_sample = spec.activation_bytes_per_sample
    if per_sample <= 0:
        raise ValueError("activation_bytes_per_sample must be positive to size a batch")
    fixed = memory_breakdown(spec, world_size, grad_worker_frac).total
    available = memory_budget_bytes - fixed
    if available < per_sample:
        return 0
    return int(available // per_sample)
