"""Section 4.4 ablation: caching the damped eigenvalue outer product.

The outer product is Eq. 16's damped spectrum, here ``1/((v_G + √γ/π)(v_A + π√γ)ᵀ)``
with π from the eigenvalues (:func:`repro.kfac.kmath.eigenvalue_outer_product`).

KAISA moves the computation of the damped eigenvalue outer product from the
per-iteration preconditioning stage into the (infrequent) eigen-decomposition
stage and broadcasts the result, reporting up to 53% faster per-layer gradient
preconditioning.  This micro-benchmark measures the per-call preconditioning
time with and without the cached outer product on a ResNet-50-sized layer.
"""

import numpy as np

from repro.experiments import format_table
from repro.kfac import symmetric_eigen
from repro.kfac.kmath import eigenvalue_outer_product, precondition_with_eigen

from conftest import print_section

# The largest ResNet-50 convolution factor pair: A is 4608x4608, G is 512x512.
# Scaled down ~4x per side to keep the benchmark under a second per round.
A_DIM, G_DIM = 1152, 128
DAMPING = 0.003


def _setup():
    rng = np.random.default_rng(0)
    root_a = rng.standard_normal((A_DIM, A_DIM)).astype(np.float32)
    root_g = rng.standard_normal((G_DIM, G_DIM)).astype(np.float32)
    factor_a = root_a @ root_a.T / A_DIM
    factor_g = root_g @ root_g.T / G_DIM
    eig_a = symmetric_eigen(factor_a)
    eig_g = symmetric_eigen(factor_g)
    grad = rng.standard_normal((G_DIM, A_DIM)).astype(np.float32)
    cached = eigenvalue_outer_product(eig_a, eig_g, DAMPING)
    return eig_a, eig_g, grad, cached


def test_ablation_precondition_without_cache(benchmark):
    eig_a, eig_g, grad, _ = _setup()
    benchmark(lambda: precondition_with_eigen(grad, eig_a, eig_g, DAMPING, inverse_outer=None))


def test_ablation_precondition_with_cache(benchmark):
    eig_a, eig_g, grad, cached = _setup()
    benchmark(lambda: precondition_with_eigen(grad, eig_a, eig_g, DAMPING, inverse_outer=cached))


def test_ablation_cache_speedup_summary(benchmark):
    """Time both paths in one test and print the measured reduction vs the paper's 53%."""
    import time

    eig_a, eig_g, grad, cached = _setup()

    def measure(runs=20, outer=None):
        start = time.perf_counter()
        for _ in range(runs):
            precondition_with_eigen(grad, eig_a, eig_g, DAMPING, inverse_outer=outer)
        return (time.perf_counter() - start) / runs

    uncached_time = benchmark.pedantic(lambda: measure(outer=None), iterations=1, rounds=1)
    cached_time = measure(outer=cached)
    reduction = 100.0 * (uncached_time - cached_time) / uncached_time

    print_section("Section 4.4 ablation - cached eigenvalue outer product")
    print(
        format_table(
            ["variant", "time per preconditioning call (ms)"],
            [["recompute the damped outer product every call", round(uncached_time * 1000, 3)],
             ["cached at eigen-decomposition time", round(cached_time * 1000, 3)]],
        )
    )
    print(f"\nMeasured per-layer preconditioning time reduction: {reduction:.1f}% (paper: up to 53%)")
    assert cached_time <= uncached_time
