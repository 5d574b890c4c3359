"""Analytic performance model for distributed training.

The paper's iteration-time and scaling studies (Figures 6, 7, 8) were run on
64–448 V100s and up to 192 A100s, which are not available here.  This module
provides an alpha-beta communication model plus simple roofline-style compute
estimates so the *shape* of those results can be regenerated from the real
layer shapes of each model:

* **allreduce** — ring algorithm: ``2 (p-1)/p * bytes / bw + 2 (p-1) * alpha``,
* **broadcast** — minimum-spanning-tree algorithm: ``ceil(log2 p) * (alpha +
  bytes / bw)``, the ``O(log p)`` complexity used in the paper's section 3.1
  analysis,
* **compute** — FLOP counts divided by an effective throughput; eigen
  decompositions get a much lower efficiency factor than dense matrix
  multiplication, matching their poor GPU utilisation.

Constants are calibrated to the published hardware (V100 + EDR InfiniBand,
DGX-A100 + NVLink/HDR) and documented per field; absolute times are only
indicative but relative behaviour across ``grad_worker_frac`` values, models
and world sizes follows the same formulae the paper reasons with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .collectives import BucketManager

__all__ = [
    "DeviceSpec",
    "NetworkSpec",
    "PerformanceModel",
    "amortized_update_time",
    "choose_bucket_cap",
    "V100",
    "A100",
    "EDR_INFINIBAND",
    "DGX_A100_FABRIC",
    "ETHERNET_10G",
]

#: Fraction of an iteration's forward+backward+update compute spent in the
#: backward pass — the window a hook-driven schedule can hide communication
#: behind.  Backward is ~2x forward work (grad w.r.t. inputs and weights), so
#: two thirds of the fwd+bwd budget is the standard engineering estimate.
BACKWARD_COMPUTE_FRACTION = 2.0 / 3.0


def amortized_update_time(duration: float, update_freq: int, update_fraction: float = 1.0) -> float:
    """Per-iteration share of a stage that runs every ``update_freq`` steps.

    ``update_fraction`` scales the base cadence to what was *actually*
    performed — :func:`repro.kfac.apply_measured_fractions` reads the
    performed/expected update ratios off a live run, so a layer set that skipped half its
    eigen refreshes charges half the amortised decomposition time.  The
    fixed cadence is ``update_fraction=1.0``; values above 1 model
    drift-triggered refreshes beyond the base schedule.
    """
    return float(duration) * max(float(update_fraction), 0.0) / max(int(update_freq), 1)


@dataclass(frozen=True)
class DeviceSpec:
    """Per-accelerator compute characteristics."""

    name: str
    peak_flops_fp32: float  # dense FP32 FLOP/s
    peak_flops_fp16: float  # dense FP16 (tensor core) FLOP/s
    memory_bytes: int  # device memory capacity

    def peak_flops(self, dtype_bytes: int) -> float:
        return self.peak_flops_fp16 if dtype_bytes <= 2 else self.peak_flops_fp32


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point interconnect characteristics (per rank pair)."""

    name: str
    latency: float  # seconds per message
    bandwidth: float  # bytes per second


#: 16 GB NVIDIA Tesla V100 (Frontera GPU subsystem).
V100 = DeviceSpec(name="V100", peak_flops_fp32=15.7e12, peak_flops_fp16=125e12, memory_bytes=16 * 1024 ** 3)

#: 40 GB NVIDIA A100 (ThetaGPU DGX-A100 nodes).
A100 = DeviceSpec(name="A100", peak_flops_fp32=19.5e12, peak_flops_fp16=312e12, memory_bytes=40 * 1024 ** 3)

#: InfiniBand EDR (100 Gb/s) with NCCL-like software latency.
EDR_INFINIBAND = NetworkSpec(name="EDR-IB", latency=20e-6, bandwidth=12.5e9)

#: DGX-A100 mixed NVLink/HDR fabric (effective inter-node bandwidth).
DGX_A100_FABRIC = NetworkSpec(name="DGX-A100", latency=10e-6, bandwidth=25e9)

#: Commodity 10 GbE, the "high communication cost" environment of section 7.
ETHERNET_10G = NetworkSpec(name="10GbE", latency=50e-6, bandwidth=1.25e9)


class PerformanceModel:
    """Estimates communication and compute times for the simulated cluster."""

    def __init__(
        self,
        device: DeviceSpec = V100,
        network: NetworkSpec = EDR_INFINIBAND,
        compute_efficiency: float = 0.45,
        eigen_efficiency: float = 0.05,
    ) -> None:
        if not 0 < compute_efficiency <= 1 or not 0 < eigen_efficiency <= 1:
            raise ValueError("efficiencies must be in (0, 1]")
        self.device = device
        self.network = network
        self.compute_efficiency = float(compute_efficiency)
        self.eigen_efficiency = float(eigen_efficiency)

    # -------------------------------------------------------- communication
    def allreduce_time(self, nbytes: float, world_size: int) -> float:
        """Ring allreduce time across ``world_size`` ranks."""
        if world_size <= 1 or nbytes <= 0:
            return 0.0
        p = world_size
        bandwidth_term = 2.0 * (p - 1) / p * nbytes / self.network.bandwidth
        latency_term = 2.0 * (p - 1) * self.network.latency
        return bandwidth_term + latency_term

    def broadcast_time(self, nbytes: float, group_size: int) -> float:
        """Minimum-spanning-tree broadcast time within a group (O(log p), section 3.1)."""
        if group_size <= 1 or nbytes <= 0:
            return 0.0
        hops = math.ceil(math.log2(group_size))
        return hops * (self.network.latency + nbytes / self.network.bandwidth)

    @staticmethod
    def backward_window(iteration_compute_time: float) -> float:
        """Backward-pass compute available to hide hook-posted communication behind.

        ``iteration_compute_time`` is the per-rank forward+backward+update
        time; the hook-driven gradient pipeline posts its buckets while the
        backward two-thirds of it is still executing.
        """
        return max(0.0, float(iteration_compute_time)) * BACKWARD_COMPUTE_FRACTION

    # --------------------------------------------------------------- compute
    def compute_time(self, flops: float, dtype_bytes: int = 4) -> float:
        """Time for dense, well-utilised compute (matmuls, factor products)."""
        if flops <= 0:
            return 0.0
        return flops / (self.device.peak_flops(dtype_bytes) * self.compute_efficiency)

    def eigen_decomposition_time(self, n: int, dtype_bytes: int = 4) -> float:
        """Time to eigen-decompose an ``n x n`` symmetric matrix.

        Eigen decomposition is always executed in at least FP32 (section 3.3),
        so the FP32 peak is used regardless of the storage dtype, with a low
        efficiency factor reflecting the algorithm's poor accelerator
        utilisation (the paper's O(N^3) cost proxy, section 3.2).
        """
        if n <= 0:
            return 0.0
        flops = 9.0 * float(n) ** 3  # reduction to tridiagonal + QR iterations
        return flops / (self.device.peak_flops_fp32 * self.eigen_efficiency)

    def diagonal_eigen_time(self, n: int, dtype_bytes: int = 4) -> float:
        """Time to "decompose" a diagonal factor of dimension ``n``.

        A diagonal matrix is its own spectrum (identity eigenbasis), so the
        decomposition degenerates to an O(n) clamp over the stored vector.
        Priced at the same low eigen efficiency as the dense path so the two
        estimates stay comparable.
        """
        if n <= 0:
            return 0.0
        return float(n) / (self.device.peak_flops_fp32 * self.eigen_efficiency)

    def block_eigen_time(self, num_blocks: int, block_size: int, dtype_bytes: int = 4) -> float:
        """Time to decompose a block-diagonal factor: ``num_blocks`` independent problems."""
        if num_blocks <= 0 or block_size <= 0:
            return 0.0
        return float(num_blocks) * self.eigen_decomposition_time(block_size, dtype_bytes)

    def matmul_flops(self, m: int, n: int, k: int) -> float:
        """FLOPs of an ``(m x k) @ (k x n)`` matrix multiplication."""
        return 2.0 * float(m) * float(n) * float(k)


# ---------------------------------------------------------------------------
# Adaptive bucket sizing
# ---------------------------------------------------------------------------

#: Candidate fused-buffer caps (MB) evaluated by :func:`choose_bucket_cap`.
DEFAULT_BUCKET_CAP_CANDIDATES_MB: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 25.0, 50.0, 100.0)


def _bucket_sizes(tensor_nbytes: Sequence[int], cap_mb: float) -> list:
    """Per-bucket byte sizes the engine would build for these tensors.

    Delegates to the engine's own :class:`BucketManager` (one byte-sized
    tensor per input) so the modeled message counts cannot drift from the
    packing the scheduler actually performs.
    """
    specs = [(str(i), (int(nbytes),), np.dtype(np.uint8)) for i, nbytes in enumerate(tensor_nbytes)]
    return [bucket.nbytes for bucket in BucketManager(cap_mb).build(specs)]


def choose_bucket_cap(
    network: NetworkSpec,
    tensor_nbytes: Sequence[int],
    world_size: int = 8,
    candidates_mb: Sequence[float] = DEFAULT_BUCKET_CAP_CANDIDATES_MB,
) -> float:
    """Pick ``bucket_cap_mb`` for a tensor population from the alpha-beta model.

    A hook-driven schedule posts each fused bucket as soon as its tensors are
    ready, so all buckets except the last overlap remaining backward compute;
    the exposed cost of a candidate cap is modeled as

    * one ring-allreduce latency term (``2 (p-1) alpha``) per bucket — small
      caps issue many messages and pay alpha repeatedly, while
    * the *last* bucket's full transfer (latency + ring bandwidth term)
      cannot hide behind anything — large caps leave a long serial tail.

    Minimizing the sum trades message count against pipelining granularity,
    exactly the ``bucket_cap_mb`` knob of DDP; ties prefer the smaller cap
    (finer pipelining at equal modeled cost).  The per-bucket packing follows
    the same greedy closing rule as
    :class:`~repro.distributed.collectives.BucketManager`, so the modeled
    message counts match what the engine would issue.
    """
    tensor_nbytes = [int(b) for b in tensor_nbytes if int(b) > 0]
    if not tensor_nbytes:
        return float(candidates_mb[0])
    if world_size < 2:
        world_size = 2  # a single rank sends nothing; size the cap for the smallest real world
    alpha_term = 2.0 * (world_size - 1) * network.latency
    beta_per_byte = 2.0 * (world_size - 1) / world_size / network.bandwidth
    best_cap, best_cost = None, None
    for cap_mb in candidates_mb:
        sizes = _bucket_sizes(tensor_nbytes, float(cap_mb))
        cost = len(sizes) * alpha_term + sizes[-1] * beta_per_byte + alpha_term
        if best_cost is None or cost < best_cost:
            best_cap, best_cost = float(cap_mb), cost
    return best_cap
