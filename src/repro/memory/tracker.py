"""Per-rank memory accounting (Table 5 and the right axes of Figure 6).

The paper's "K-FAC memory overhead" is the per-GPU memory used by K-FAC state
on top of regular training: the running-average Kronecker factors plus the
eigen decompositions and the cached eigenvalue outer product (held only by
the ranks that act as *gradient workers* for a layer).  Two layouts of the
factors are modelled:

* **this tree's**: a running factor lives only on the rank that decomposes it
  (the ranks allreduce their *window* factors and the average is folded where
  it is read) and a dense one is stored once, as the ``n(n+1)/2`` elements of
  its triangle, so per-rank state is ``(factors + eigen) / world`` at MEM-OPT.
  :meth:`KFACMemoryModel.factor_bytes_per_rank` /
  :meth:`~KFACMemoryModel.eigen_bytes_per_rank` sum the holders of the
  :class:`~repro.kfac.strategy.DistributionPlan` the engine follows under the
  model's :class:`~repro.kfac.KFACConfig`, for every knob that moves state;
* **the paper's**: every rank keeps every factor as a full ``n x n`` square,
  because its factor allreduce leaves a copy of the running average
  everywhere, so the overhead is ``factors + eigen / world`` and a linear
  function of ``grad_worker_frac`` -- Table 5's min/max columns and Figure 6's
  right axes.  :meth:`KFACMemoryModel.paper_factor_bytes` is that term, kept
  for the paper columns the benchmarks print beside this tree's.

Regular training memory is modelled as weights + gradients + optimizer state
+ an activation estimate proportional to the local batch size.  Activation
memory depends on implementation details we cannot reproduce byte-for-byte,
so it is an explicit, documented per-workload parameter rather than a hidden
constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..kfac.config import KFACConfig
from ..kfac.strategy import DistributionPlan, LayerShapeInfo
from ..nn.module import Module

__all__ = ["MemoryBreakdown", "model_parameter_bytes", "optimizer_state_multiplier", "KFACMemoryModel"]

MB = 1024 * 1024


@dataclass
class MemoryBreakdown:
    """Bytes per rank for each memory category."""

    weights: int = 0
    gradients: int = 0
    optimizer_state: int = 0
    activations: int = 0
    kfac_factors: int = 0
    kfac_eigen: int = 0

    @property
    def baseline_total(self) -> int:
        """Memory without K-FAC (the 'SGD Abs.' column of Table 5)."""
        return self.weights + self.gradients + self.optimizer_state + self.activations

    @property
    def kfac_overhead(self) -> int:
        """K-FAC state on top of baseline training."""
        return self.kfac_factors + self.kfac_eigen

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
            "baseline_total": self.baseline_total / MB,
            "kfac_overhead": self.kfac_overhead / MB,
            "total": self.total / MB,
        }


def model_parameter_bytes(model_or_count, dtype_bytes: int = 4) -> int:
    """Bytes of the model weights, from a module or a raw parameter count."""
    if isinstance(model_or_count, Module):
        count = model_or_count.num_parameters()
    else:
        count = int(model_or_count)
    return count * dtype_bytes


def optimizer_state_multiplier(optimizer_name: str) -> int:
    """Number of parameter-sized state buffers kept per parameter by an optimizer."""
    lowered = optimizer_name.lower()
    if lowered in ("sgd",):
        return 1  # momentum buffer
    if lowered in ("adam", "adamw", "lamb", "fusedlamb"):
        return 2  # first and second moments
    raise ValueError(f"unknown optimizer {optimizer_name!r}")


class KFACMemoryModel:
    """Computes per-rank memory breakdowns for a workload under a distribution strategy.

    ``config`` carries every K-FAC knob that sizes or places state (precision,
    ``compute_eigen_outer``, ``assignment_balance``, ``drift_tol``,
    ``damping_pi_correction``, the solve strategies); its ``grad_worker_frac``
    is replaced by the one each query passes.
    """

    def __init__(
        self,
        layers: Sequence[LayerShapeInfo],
        param_count: int,
        optimizer: str = "sgd",
        weight_dtype_bytes: int = 4,
        activation_bytes_per_sample: int = 0,
        config: Optional[KFACConfig] = None,
    ) -> None:
        self.layers = list(layers)
        self.param_count = int(param_count)
        self.optimizer = optimizer
        self.weight_dtype_bytes = int(weight_dtype_bytes)
        self.activation_bytes_per_sample = int(activation_bytes_per_sample)
        self.config = config if config is not None else KFACConfig()

    def plan(self, world_size: int, grad_worker_frac: float) -> DistributionPlan:
        """The plan a :class:`~repro.kfac.KFAC` built from ``config`` follows at this operating point."""
        return self.config.replace(grad_worker_frac=grad_worker_frac).distribution_plan(self.layers, world_size)

    # ------------------------------------------------------------- components
    def factor_bytes(self) -> int:
        """Bytes of all Kronecker factors, each stored once: what the ranks of this tree hold between them.

        Each factor is charged at its stored (packed) size: ``n(n+1)/2``
        elements for dense, ``n`` for diagonal, ``blocks·bs²`` for
        block-diagonal — matching the arrays the handlers actually allocate.
        """
        policy = self.config.wire_policy()
        return sum(policy.factor_bytes(layer) for layer in self.layers)

    def paper_factor_bytes(self) -> int:
        """What *every* rank holds in the paper's layout: all factors, a dense one as the full ``n x n`` square."""
        itemsize = np.dtype(self.config.precision_policy().factor_dtype).itemsize
        reprs = [repr_ for layer in self.layers for repr_ in (layer.a_repr, layer.g_repr)]
        return itemsize * sum(repr_.dim**2 if repr_.is_dense else repr_.packed_numel for repr_ in reprs)

    def factor_bytes_per_rank(self, world_size: int, grad_worker_frac: float) -> np.ndarray:
        """Running-factor bytes held by each rank: the plan's ``factor_holders``, summed.

        With the default knobs a factor lives on the rank that decomposes it
        and this sums to :meth:`factor_bytes`.
        """
        return self.plan(world_size, grad_worker_frac).factor_bytes_per_rank()

    def eigen_bytes_per_rank(self, world_size: int, grad_worker_frac: float) -> np.ndarray:
        """Eigen-decomposition bytes held by each rank: the plan's ``eigen_holders``, summed."""
        return self.plan(world_size, grad_worker_frac).eigen_bytes_per_rank()

    # ------------------------------------------------------------- breakdowns
    def breakdown(
        self,
        world_size: int,
        grad_worker_frac: Optional[float],
        local_batch_size: int = 0,
        rank: str = "max",
    ) -> MemoryBreakdown:
        """Memory breakdown for one rank.

        ``grad_worker_frac=None`` gives the baseline (no K-FAC) breakdown.
        ``rank`` selects ``"max"`` (the rank with the most K-FAC state,
        factors and eigen state together), ``"min"`` or ``"mean"``.
        """
        weights = self.param_count * self.weight_dtype_bytes
        gradients = self.param_count * self.weight_dtype_bytes
        opt_state = self.param_count * self.weight_dtype_bytes * optimizer_state_multiplier(self.optimizer)
        activations = self.activation_bytes_per_sample * local_batch_size
        result = MemoryBreakdown(
            weights=weights, gradients=gradients, optimizer_state=opt_state, activations=activations
        )
        if grad_worker_frac is None:
            return result
        factors = self.factor_bytes_per_rank(world_size, grad_worker_frac)
        eigen = self.eigen_bytes_per_rank(world_size, grad_worker_frac)
        if rank == "mean":
            result.kfac_factors, result.kfac_eigen = int(factors.mean()), int(eigen.mean())
        elif rank in ("max", "min"):
            total = factors + eigen
            index = int(total.argmax() if rank == "max" else total.argmin())
            result.kfac_factors, result.kfac_eigen = int(factors[index]), int(eigen[index])
        else:
            raise ValueError("rank must be 'max', 'min' or 'mean'")
        return result

    def overhead_bytes(self, world_size: int, grad_worker_frac: float, rank: str = "max") -> int:
        """K-FAC overhead only (factors + eigen state) for the selected rank."""
        return self.breakdown(world_size, grad_worker_frac, rank=rank).kfac_overhead

    def max_local_batch_size(
        self,
        memory_budget_bytes: int,
        world_size: int,
        grad_worker_frac: Optional[float],
        activation_bytes_per_sample: Optional[int] = None,
    ) -> int:
        """Largest local batch size that fits in ``memory_budget_bytes`` (Table 4 setup)."""
        per_sample = (
            activation_bytes_per_sample if activation_bytes_per_sample is not None else self.activation_bytes_per_sample
        )
        if per_sample <= 0:
            raise ValueError("activation_bytes_per_sample must be positive to size a batch")
        fixed = self.breakdown(world_size, grad_worker_frac, local_batch_size=0).total
        available = memory_budget_bytes - fixed
        if available < per_sample:
            return 0
        return int(available // per_sample)
