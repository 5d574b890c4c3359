"""Host-speed calibration: the frozen reference kernel and normalisation helpers.

On a small shared box the same training step drifts by tens of percent within
one process, and the drift is a multiplicative machine-speed factor.  A fixed
reference kernel run after every timed step tracks it, so every timing the
benchmark reports is wall-clock divided by the *speed factor* of the block it
was measured in::

    speed_factor = median(reference-kernel time over the block) / NOMINAL_MS

i.e. "milliseconds at nominal host speed".  The raw value is always kept
beside the normalised one in the detailed output.

The kernel is frozen with the benchmark: changing any size below, or
``NOMINAL_MS``, redefines every timing metric and invalidates the baseline.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

__all__ = ["NOMINAL_MS", "ReferenceKernel", "speed_factor", "median"]

#: Reference-kernel time that defines speed factor 1.0: about what one quiet
#: core of the 2-core box the benchmark was defined on takes, so that there
#: normalised and raw milliseconds read alike.
NOMINAL_MS = 0.5

GEMM_DIM = 192  # float32 GEMM: the BLAS share of a step
STREAM_FLOATS = 262_144  # 1 MB read + 1 MB written: the memory-bound elementwise share
EXP_FLOATS = 65_536  # transcendental share (softmax / gelu / tanh)
LOOP_ITERATIONS = 3000  # interpreter share (autograd dispatch, hooks, bookkeeping)


class ReferenceKernel:
    """The fixed ~0.5 ms mix of GEMM, streaming, ``exp`` and interpreter work.

    One instance per thread: the kernel writes into preallocated outputs so a
    call allocates nothing, and the buffers are not shared between ranks.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20210621)
        self.a = rng.standard_normal((GEMM_DIM, GEMM_DIM)).astype(np.float32)
        self.b = rng.standard_normal((GEMM_DIM, GEMM_DIM)).astype(np.float32)
        self.c = np.empty_like(self.a)
        self.stream = rng.standard_normal(STREAM_FLOATS).astype(np.float32)
        self.stream_out = np.empty_like(self.stream)
        self.small = rng.standard_normal(EXP_FLOATS).astype(np.float32)
        self.small_out = np.empty_like(self.small)

    def __call__(self) -> float:
        """Run the kernel once; returns its wall-clock time in milliseconds."""
        start = time.perf_counter()
        np.matmul(self.a, self.b, out=self.c)
        np.multiply(self.stream, np.float32(1.0001), out=self.stream_out)
        np.exp(self.small, out=self.small_out)
        acc = 0
        for i in range(LOOP_ITERATIONS):
            acc += i & 7
        return (time.perf_counter() - start) * 1e3

    def sample(self, repeats: int) -> list:
        """``repeats`` back-to-back kernel times (ms)."""
        return [self() for _ in range(repeats)]


def median(values: Sequence[float]) -> float:
    """Median that is 0.0 for an empty sequence (a class of step that never ran)."""
    return float(statistics.median(values)) if len(values) else 0.0


def speed_factor(calibration_ms: Sequence[float]) -> float:
    """Speed factor of one block from its reference-kernel times (ms)."""
    return median(calibration_ms) / NOMINAL_MS
