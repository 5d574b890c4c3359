"""Tests for the kernel backend (`repro.kfac.kernels`) against `tests/kernel_oracle.py`.

Covers the one backend (named ``batched``) and how a preconditioner is put
on other kernels, per-op parity of that backend against the plain-expression
oracle (bitwise for the decay fold and the preconditioning contraction,
tolerance-tiered for the eigendecomposition and the einsum KL accumulation),
degenerate factors, the no-copy regression tests on buffer identity,
end-to-end oracle-vs-backend training parity across all three distribution
strategies x sync/overlap/hooked x adaptive due-subsets and mixed precision,
and checkpoint resume with the kernels flipped between save and load.
"reference" below always means the oracle's kernels, swapped into a
preconditioner with ``use_reference_kernels``.

Parity tiers (documented in README "Kernels"): training trajectories are
compared at float32 resolution — ``rtol=5e-3`` with ``atol=1e-5`` — because
the stacked/``syevd`` eigen solvers are exact eigendecompositions but not
bit-identical to the oracle's ``syevr``.
"""

import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import lapack

from repro import nn, optim
from repro.distributed import DistributedDataParallel, run_spmd
from kernel_oracle import (
    ReferenceKernelBackend,
    SquarePathKernelBackend,
    decompose_standalone,
    reference_symmetric_eigen,
    scipy_syevd,
    square_fold_reference,
    use_reference_kernels,
)
from repro.kfac import (
    KFAC,
    FactorRepr,
    KFACConfig,
    KernelBackend,
    kl_clip_scale,
    make_kernel_backend,
    make_kfac_layer,
    precondition_with_eigen,
    symmetric_eigen,
)
from repro.kfac.kernels import STACK_EIGH_MAX_DIM
from repro.models import MLP
from repro.nn.linear import Linear
from repro.nn.norm import LayerNorm
from repro.tensor import PrecisionPolicy, Tensor
from repro.training import GradientPipeline, Trainer

# The documented tolerance tier for eigh parity with the oracle: downstream
# results (preconditioned gradients, training trajectories) agree to float32
# resolution; factors and the fused/contract ops stay bitwise.
EIGH_RTOL = 5e-3
EIGH_ATOL = 1e-5


def spd_factor(dim, seed=0, scale=1.0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)).astype(dtype)
    return (m @ m.T / dim * scale + np.eye(dim, dtype=dtype)).astype(dtype)


def make_problem(seed=0, samples=256, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


def assert_valid_eigen(decomposition, factor, rtol=1e-4, atol=1e-5):
    """A correct symmetric eigendecomposition, independent of LAPACK driver.

    Eigenvectors are only defined up to sign (and rotation inside degenerate
    eigenspaces), so parity is asserted on the reconstruction and on the
    (canonical, ascending) eigenvalues — never on the vectors themselves.
    """
    q = decomposition.eigenvectors.astype(np.float64)
    v = decomposition.eigenvalues.astype(np.float64)
    assert np.all(np.diff(v) >= -atol)  # LAPACK returns ascending eigenvalues
    np.testing.assert_allclose(q @ np.diag(v) @ q.T, factor.astype(np.float64), rtol=rtol, atol=atol)
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-5)


# ---------------------------------------------------------------------------
# The one backend, and other kernels by substitution
# ---------------------------------------------------------------------------


class TestOneBackend:
    def test_one_backend_and_no_registry(self):
        """``batched`` is the one backend: nothing registers another and no config field names one."""
        import dataclasses

        import repro.kfac

        assert KernelBackend.name == make_kernel_backend().name == "batched"
        assert not any(hasattr(repro.kfac, name) for name in ("register_kernel_backend", "available_kernel_backends"))
        assert "kernel_backend" not in {field.name for field in dataclasses.fields(KFACConfig)}

    def test_make_returns_fresh_instances(self):
        first, second = make_kernel_backend("batched"), make_kernel_backend("batched")
        assert type(first) is KernelBackend
        assert first is not second  # backends own scratch; never shared

    def test_substituted_kernels_run_the_hot_math(self):
        """The README recipe: subclass, override, assign to the preconditioner and its layers."""

        class CountingBackend(KernelBackend):
            name = "counting"
            calls = 0

            def batched_eigen_task(self, factors, **kwargs):
                type(self).calls += 1
                return super().batched_eigen_task(factors, **kwargs)

        model = MLP(6, [8], 3, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        pre.kernels = CountingBackend()
        for layer in pre.layers.values():
            layer.kernels = pre.kernels
        assert pre.kernel_backend == "counting"
        x, y = make_problem(0, samples=16)
        nn.CrossEntropyLoss()(model(Tensor(x)), y).backward()
        pre.step()
        assert CountingBackend.calls > 0

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            make_kernel_backend("cuda")

    def test_no_config_field_or_variable_selects_a_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")  # retired: not read
        model = MLP(6, [8], 3, rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="kernel_backend"):
            KFACConfig(kernel_backend="batched")
        with pytest.raises(TypeError, match="kernel_backend"):
            KFAC(model, kernel_backend="batched")
        assert type(KFAC(model).kernels) is KernelBackend

    def test_preconditioner_owns_backend_instance(self):
        model = MLP(6, [8], 3, rng=np.random.default_rng(0))
        pre = KFAC.from_config(model, KFACConfig())
        assert pre.kernel_backend == "batched"
        assert type(pre.kernels) is KernelBackend
        for layer in pre.layers.values():
            assert layer.kernels is pre.kernels


# ---------------------------------------------------------------------------
# Per-op parity (unit level)
# ---------------------------------------------------------------------------


class TestBatchedEigen:
    @pytest.mark.parametrize("dim", [1, 2, 8, STACK_EIGH_MAX_DIM, STACK_EIGH_MAX_DIM + 1, 48, 96])
    def test_matches_reference_eigenvalues_and_reconstruction(self, dim):
        backend = KernelBackend()
        factors = [spd_factor(dim, seed) for seed in range(4)]
        batched = backend.batched_symmetric_eigen(factors)
        for factor, decomposition in zip(factors, batched):
            assert_valid_eigen(decomposition, factor)
            reference = reference_symmetric_eigen(factor)
            np.testing.assert_allclose(
                decomposition.eigenvalues, reference.eigenvalues, rtol=1e-4, atol=1e-5
            )

    def test_single_op_equals_batch_of_one(self):
        backend = KernelBackend()
        factor = spd_factor(16, 3)
        single = backend.symmetric_eigen(factor)
        batch = backend.batched_symmetric_eigen([factor])[0]
        np.testing.assert_array_equal(single.eigenvalues, batch.eigenvalues)
        np.testing.assert_array_equal(single.eigenvectors, batch.eigenvectors)

    def test_batch_composition_does_not_change_results(self):
        """Distributed determinism: a factor decomposes identically whether it
        shares a batch with 1 or 7 peers (ranks batch different subsets)."""
        backend = KernelBackend()
        target = spd_factor(8, 42)
        alone = backend.batched_symmetric_eigen([target])[0]
        crowd = backend.batched_symmetric_eigen([spd_factor(8, s) for s in range(7)] + [target])[-1]
        np.testing.assert_array_equal(alone.eigenvalues, crowd.eigenvalues)
        np.testing.assert_array_equal(alone.eigenvectors, crowd.eigenvectors)

    def test_empty_batch(self):
        assert KernelBackend().batched_symmetric_eigen([]) == []

    @pytest.mark.parametrize("kind, dim", [("dense", 8), ("dense", 40), ("diagonal", 5)])
    def test_a_non_finite_factor_is_rejected_with_its_batch_index(self, kind, dim):
        """Every eigen path refuses a factor holding an inf or a NaN, with ``syevd``'s error and the member's
        index: the stacked ``eigh`` (dim <= 32) would return NaN eigenvalues, the diagonal clamp pass an inf."""
        backend = KernelBackend()
        message = f"factor of dimension {dim} contains infs or NaNs"
        if kind == "diagonal":
            factor = np.ones(dim, dtype=np.float32)
            factor[2] = np.inf
            with pytest.raises(ValueError, match=message) as raised:
                backend.structured_eigen(factor, FactorRepr.diagonal(dim))
            assert raised.value.batch_index == 0
            return
        repr_ = FactorRepr.dense(dim)
        good, bad = repr_.from_dense(spd_factor(dim, 1)), repr_.from_dense(spd_factor(dim, 2))
        bad[3] = np.nan
        with pytest.raises(ValueError, match=message) as raised:
            backend.batched_symmetric_eigen([good, bad])
        assert raised.value.batch_index == 1

    def test_mismatched_shapes_raise(self):
        backend = KernelBackend()
        with pytest.raises(ValueError, match="same-shape"):
            backend.batched_symmetric_eigen([spd_factor(4), spd_factor(5)])
        with pytest.raises(ValueError, match="square"):
            backend.batched_symmetric_eigen([np.ones((3, 4), dtype=np.float32)])

    @pytest.mark.parametrize("dim", [4, 64])
    def test_rank_deficient_factor(self, dim):
        """Rank-1 factors (a single outer product) decompose cleanly and
        negative round-off eigenvalues are clamped to zero."""
        rng = np.random.default_rng(9)
        v = rng.standard_normal(dim).astype(np.float32)
        factor = np.outer(v, v).astype(np.float32)
        for backend in (ReferenceKernelBackend(), KernelBackend()):
            decomposition = backend.batched_symmetric_eigen([factor])[0]
            assert np.all(decomposition.eigenvalues >= 0.0)
            assert_valid_eigen(decomposition, factor, rtol=1e-3, atol=1e-3)

    def test_layernorm_shaped_factors(self):
        """The 1x1 (no-bias) and 2x2 LayerNorm A factors go through the
        stacked path; a diagonal G factor stays diagonal."""
        backend = KernelBackend()
        one = backend.batched_symmetric_eigen([np.array([[2.5]], dtype=np.float32)])[0]
        np.testing.assert_allclose(one.eigenvalues, [2.5])
        np.testing.assert_allclose(np.abs(one.eigenvectors), [[1.0]])
        two = np.array([[1.0, 0.3], [0.3, 2.0]], dtype=np.float32)
        assert_valid_eigen(backend.batched_symmetric_eigen([two])[0], two)
        diag = np.diag(np.array([3.0, 1.0, 2.0], dtype=np.float32))
        decomposition = backend.batched_symmetric_eigen([diag])[0]
        np.testing.assert_allclose(decomposition.eigenvalues, [1.0, 2.0, 3.0], atol=1e-6)

    def test_compute_dtype_honored(self):
        """Satellite 1: the solve runs in compute_dtype (float32 floor), not
        an unconditional float64 upcast; eigh_dtype is the escape hatch."""
        factor = spd_factor(24, 5)
        f32 = symmetric_eigen(factor, compute_dtype=np.float32)
        forced64 = symmetric_eigen(factor, compute_dtype=np.float32, eigh_dtype=np.float64)
        # Solving in f32 vs f64 gives close but not bitwise-equal spectra —
        # proof the compute_dtype path is live (the old code always hit f64).
        assert f32.eigenvalues.dtype == np.float32 and forced64.eigenvalues.dtype == np.float32
        assert not np.array_equal(f32.eigenvalues, forced64.eigenvalues)
        np.testing.assert_allclose(f32.eigenvalues, forced64.eigenvalues, rtol=1e-4)
        # fp64 policies solve (and return) in f64.
        factor64 = factor.astype(np.float64)
        full = symmetric_eigen(factor64, compute_dtype=np.float64)
        assert full.eigenvalues.dtype == np.float64
        assert_valid_eigen(full, factor64, rtol=1e-10, atol=1e-10)
        # fp16 compute is floored at single precision (paper section 3.3).
        half = symmetric_eigen(factor.astype(np.float16), compute_dtype=np.float16)
        assert half.eigenvalues.dtype == np.float16
        assert np.all(np.isfinite(half.eigenvalues.astype(np.float64)))


class TestEigenCallAcrossThreads:
    """The ``syevd`` call holds no interpreter lock, so threaded ranks solve side by side: it must be re-entrant."""

    def test_four_threads_return_what_a_serial_loop_returns(self):
        factors = [spd_factor(dim, seed=dim) for dim in (65, 96, 129, 160)]
        serial = [symmetric_eigen(factor) for factor in factors]
        for (values, vectors), decomposition in zip(map(scipy_syevd, factors), serial):
            np.testing.assert_array_equal(decomposition.eigenvalues, values)
            np.testing.assert_array_equal(decomposition.eigenvectors, vectors)
        for _ in range(20):
            results = [None] * len(factors)
            gate = threading.Barrier(len(factors))

            def solve(index):
                gate.wait(timeout=30)
                results[index] = symmetric_eigen(factors[index])

            threads = [threading.Thread(target=solve, args=(index,)) for index in range(len(factors))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for decomposition, reference in zip(results, serial):
                np.testing.assert_array_equal(decomposition.eigenvalues, reference.eigenvalues)
                np.testing.assert_array_equal(decomposition.eigenvectors, reference.eigenvectors)

    def test_the_interpreter_lock_is_released_for_the_solve(self):
        """A helper thread keeps counting while the main thread is inside LAPACK.

        The counter is read immediately before and after each call.  A call
        that holds the lock throughout lets the helper run only in the
        hand-over slices around it (the shortened switch interval plus however
        long the host takes to wake the main thread: anything from a hundred
        counts to tens of thousands on a shared box, whatever the call's
        length); a call that releases it lets the helper count for the whole
        solve.  That noise only ever adds counts, so each call is measured several
        times and its *slowest* counting rate kept.  ``sum`` over a ``range``
        -- one C loop that never drops the lock -- is measured the same way as
        the calibration of the first case; SciPy's f2py wrapper of the same
        routine is printed beside ours, not asserted (a later SciPy may
        release the lock itself).
        """
        factor = spd_factor(640, seed=11)
        fortran = np.asfortranarray(factor)
        counter, stop = [0], threading.Event()

        def count():
            while not stop.is_set():
                counter[0] += 1

        def measure(call, repeats=5):
            """(smallest counter advance, smallest advance per ms of call) over ``repeats`` calls."""
            advances, rates = [], []
            for _ in range(repeats):
                before, start = counter[0], time.perf_counter()
                call()
                advances.append(counter[0] - before)
                rates.append(advances[-1] / ((time.perf_counter() - start) * 1e3))
            return min(advances), min(rates)

        helper = threading.Thread(target=count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            helper.start()
            held, held_rate = measure(lambda: sum(range(2_000_000)), repeats=10)
            ours, ours_rate = measure(lambda: symmetric_eigen(factor))
            scipys, scipys_rate = measure(lambda: lapack.ssyevd(fortran, lower=1))
        finally:
            stop.set()
            helper.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not helper.is_alive()
        print(
            f"\ncounter advance per call (per ms of call): lock-free ctypes syevd {ours} ({ours_rate:.0f}), "
            f"scipy f2py ssyevd {scipys} ({scipys_rate:.0f}), lock-holding C loop {held} ({held_rate:.0f})"
        )
        assert ours > 1000
        assert ours_rate > 3 * held_rate


class TestFusedDecayUpdate:
    def test_bitwise_equals_reference_float32(self):
        reference, batched = ReferenceKernelBackend(), KernelBackend()
        running_ref = spd_factor(32, 1)
        running_bat = running_ref.copy()
        for step in range(5):
            new = spd_factor(32, 100 + step)
            expected = reference.fused_decay_update(running_ref, new, 0.95, np.float32)
            actual = batched.fused_decay_update(running_bat, new, 0.95, np.float32)
            np.testing.assert_array_equal(actual, expected)
            running_ref, running_bat = expected, actual

    def test_in_place_and_zero_scratch_growth(self):
        backend = KernelBackend()
        running, new = spd_factor(16, 2), spd_factor(16, 3)
        scaled = new * np.float32(1.0 - 0.9)
        result = backend.fused_decay_update(running, new, 0.9, np.float32)
        assert result is running  # buffer identity, no new array
        np.testing.assert_array_equal(new, scaled)  # the window average is consumed as the staging buffer
        assert backend.scratch_bytes() == 0  # and no scratch pool is held for the fold

    def test_non_float32_falls_back_to_reference(self):
        reference, batched = ReferenceKernelBackend(), KernelBackend()
        running = spd_factor(8, 1, dtype=np.float16)
        new = spd_factor(8, 2).astype(np.float32)
        expected = reference.fused_decay_update(running.copy(), new, 0.95, np.float16)
        snapshot = new.copy()
        actual = batched.fused_decay_update(running.copy(), new, 0.95, np.float16)
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(new, snapshot)  # the fallback consumes nothing
        assert actual.dtype == np.float16

    def test_frozen_buffer_falls_back_without_mutation(self):
        """A read-only running factor (e.g. sanitizer-frozen bucket memory)
        must not be written in place — the backend detects it and allocates."""
        batched = KernelBackend()
        running = spd_factor(8, 1)
        running.flags.writeable = False
        snapshot = running.copy()
        result = batched.fused_decay_update(running, spd_factor(8, 2), 0.9, np.float32)
        assert result is not running
        np.testing.assert_array_equal(running, snapshot)
        # Likewise a read-only window average is blended, not scaled in place.
        frozen_new = spd_factor(8, 2)
        frozen_new.flags.writeable = False
        writable = snapshot.copy()
        again = batched.fused_decay_update(writable, frozen_new, 0.9, np.float32)
        np.testing.assert_array_equal(again, result)
        np.testing.assert_array_equal(frozen_new, spd_factor(8, 2))


def syrk_window(dim, seed, dtype=np.float32):
    """A factor window as the hooks produce it: one ``syrk`` product, exactly symmetric, in its stored form."""
    rows = np.random.default_rng(seed).standard_normal((2 * dim + 3, dim)).astype(np.float32)
    square = rows.T @ rows / np.float32(rows.shape[0])
    np.testing.assert_array_equal(square, square.T)
    return FactorRepr.dense(dim).from_dense(square).astype(dtype)


class TestPackedVsSquareStorage:
    """Packed storage must be invisible: the fold, the allreduce average and the decomposition of
    a stored triangle are, to the bit, what the square path (``kernel_oracle``) computes on the full
    matrix -- on the exactly symmetric windows ``syrk`` produces, for every storage dtype and for
    read-only operands (bucket memory the sanitizer froze)."""

    DIMS = [*range(1, 71), 128, 129, 512, 513]
    STORAGE = [np.float16, np.float32, np.float64]

    @pytest.mark.parametrize("store", STORAGE, ids=lambda dtype: np.dtype(dtype).name)
    @pytest.mark.parametrize("frozen", [False, True], ids=["writable", "read-only"])
    def test_fold_equals_the_square_fold(self, store, frozen):
        backend = KernelBackend()
        for dim in self.DIMS:
            repr_ = FactorRepr.dense(dim)
            running, window = syrk_window(dim, dim, store), syrk_window(dim, 1000 + dim, store)
            expected = square_fold_reference(repr_, running, window, 0.95, store)
            running.setflags(write=not frozen)
            window.setflags(write=not frozen)
            actual = backend.fused_decay_update(running, window, 0.95, store)
            assert actual.dtype == store and actual.shape == repr_.packed_shape
            np.testing.assert_array_equal(actual, expected, err_msg=f"dim {dim}")

    @pytest.mark.parametrize("store", STORAGE, ids=lambda dtype: np.dtype(dtype).name)
    def test_allreduce_average_equals_the_average_of_the_squares(self, store):
        dims, world = [1, 2, 31, 32, 33, 70, 129], 3
        reprs = [FactorRepr.dense(dim) for dim in dims]
        windows = [[syrk_window(dim, 10 * rank + dim, store) for dim in dims] for rank in range(world)]

        def program(comm):
            packed = [comm.allreduce_average(window) for window in windows[comm.rank]]
            squares = [comm.allreduce_average(r.to_dense(w)) for r, w in zip(reprs, windows[comm.rank])]
            return packed, squares

        for packed, squares in run_spmd(world, program):
            for repr_, triangle, square in zip(reprs, packed, squares):
                np.testing.assert_array_equal(square, square.T)
                np.testing.assert_array_equal(triangle, repr_.from_dense(square))

    @pytest.mark.parametrize("store", STORAGE, ids=lambda dtype: np.dtype(dtype).name)
    @pytest.mark.parametrize("frozen", [False, True], ids=["writable", "read-only"])
    def test_decomposition_equals_the_square_paths(self, store, frozen):
        """``?tpttr`` -> solver on the triangle == symmetrise -> the same solver on the square: eigenvalues
        and eigenvectors, the stacked path (dim <= 32) and ``syevd``, alone and in a group."""
        packed_backend, square_backend = KernelBackend(), SquarePathKernelBackend()
        compute = np.promote_types(store, np.float32)
        for dim in self.DIMS:
            factors = [syrk_window(dim, seed, store) for seed in ((dim, dim + 7) if dim <= 70 else (dim,))]
            before = [factor.copy() for factor in factors]
            for factor in factors:
                factor.setflags(write=not frozen)
            actual = packed_backend.batched_symmetric_eigen(factors, compute_dtype=compute)
            expected = square_backend.batched_symmetric_eigen(factors, compute_dtype=compute)
            for got, want, factor, untouched in zip(actual, expected, factors, before):
                np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues, err_msg=f"dim {dim}")
                np.testing.assert_array_equal(got.eigenvectors, want.eigenvectors, err_msg=f"dim {dim}")
                assert got.eigenvectors.dtype == compute
                np.testing.assert_array_equal(factor, untouched)
            alone = packed_backend.symmetric_eigen(factors[-1], compute_dtype=compute)
            np.testing.assert_array_equal(alone.eigenvectors, actual[-1].eigenvectors)
            # One solve path, two accepted inputs: the square is packed on entry.
            from_square = packed_backend.symmetric_eigen(FactorRepr.dense(dim).to_dense(factors[-1]), compute_dtype=compute)
            np.testing.assert_array_equal(from_square.eigenvectors, alone.eigenvectors)

    def test_a_vector_that_is_no_triangle_is_rejected(self):
        """A 1-D array is a packed triangle here; a diagonal factor's vector goes through ``structured_eigen``."""
        backend = KernelBackend()
        with pytest.raises(ValueError, match="not the packed triangle"):
            backend.batched_symmetric_eigen([np.ones(5, dtype=np.float32)])
        with pytest.raises(ValueError, match="same-shape"):
            backend.batched_symmetric_eigen([np.ones(6, dtype=np.float32), np.ones(10, dtype=np.float32)])
        with pytest.raises(ValueError, match="expected"):
            backend.structured_eigen(np.ones(5, dtype=np.float32), FactorRepr.dense(3))


class TestPreconditionContract:
    def _eigen_pair(self, a_dim=12, g_dim=9, seed=0):
        eig_a = symmetric_eigen(spd_factor(a_dim, seed))
        eig_g = symmetric_eigen(spd_factor(g_dim, seed + 50))
        return eig_a, eig_g

    def test_bitwise_equals_reference(self):
        batched = KernelBackend()
        eig_a, eig_g = self._eigen_pair()
        rng = np.random.default_rng(4)
        for seed in range(3):  # repeat: scratch reuse must not perturb results
            grad = rng.standard_normal((9, 12)).astype(np.float32)
            expected = precondition_with_eigen(grad, eig_a, eig_g, 0.003)
            actual = batched.precondition_contract(grad, eig_a, eig_g, 0.003)
            np.testing.assert_array_equal(actual, expected)

    def test_results_are_fresh_arrays(self):
        """Outputs coexist across layers until stage 4 — returning scratch
        would let a same-shape layer overwrite an earlier layer's result."""
        batched = KernelBackend()
        eig_a, eig_g = self._eigen_pair()
        rng = np.random.default_rng(5)
        first = batched.precondition_contract(
            rng.standard_normal((9, 12)).astype(np.float32), eig_a, eig_g, 0.003
        )
        first_copy = first.copy()
        second = batched.precondition_contract(
            rng.standard_normal((9, 12)).astype(np.float32), eig_a, eig_g, 0.003
        )
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, first_copy)

    def test_cached_outer_and_pi_paths(self):
        batched = KernelBackend()
        eig_a, eig_g = self._eigen_pair(seed=7)
        grad = np.random.default_rng(8).standard_normal((9, 12)).astype(np.float32)
        from repro.kfac import eigenvalue_outer_product

        outer = eigenvalue_outer_product(eig_a, eig_g, 0.003, pi=1.7)
        np.testing.assert_array_equal(
            batched.precondition_contract(grad, eig_a, eig_g, 0.003, inverse_outer=outer),
            precondition_with_eigen(grad, eig_a, eig_g, 0.003, inverse_outer=outer),
        )
        np.testing.assert_array_equal(
            batched.precondition_contract(grad, eig_a, eig_g, 0.003, pi=1.7),
            precondition_with_eigen(grad, eig_a, eig_g, 0.003, pi=1.7),
        )


class TestKlClipAccumulate:
    def test_close_to_reference(self):
        rng = np.random.default_rng(6)
        pairs = [
            (rng.standard_normal((8, 5)).astype(np.float32), rng.standard_normal((8, 5)).astype(np.float32))
            for _ in range(4)
        ]
        reference = ReferenceKernelBackend().kl_clip_accumulate(pairs)
        batched = KernelBackend().kl_clip_accumulate(pairs)
        # Tolerance tier: einsum reduces in a different order than sum(a*b).
        np.testing.assert_allclose(batched, reference, rtol=1e-12)
        np.testing.assert_allclose(
            KernelBackend().kl_clip_scale(pairs, 0.1, 0.001),
            kl_clip_scale(pairs, 0.1, 0.001),
            rtol=1e-12,
        )

    def test_reference_backend_is_bitwise_oracle(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.standard_normal((4, 4)), rng.standard_normal((4, 4))) for _ in range(3)]
        assert ReferenceKernelBackend().kl_clip_scale(pairs, 0.1, 0.001) == kl_clip_scale(
            pairs, 0.1, 0.001
        )


# ---------------------------------------------------------------------------
# Satellite: no-copy regression tests (buffer identity)
# ---------------------------------------------------------------------------


class TestNoCopy:
    def _linear_layer(self, bias):
        module = Linear(6, 4, bias=bias, rng=np.random.default_rng(0))
        module.weight.grad = np.random.default_rng(1).standard_normal((4, 6)).astype(np.float32)
        if bias:
            module.bias.grad = np.zeros(4, dtype=np.float32)
        return module, make_kfac_layer(
            "lin", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0
        )

    def test_get_gradient_no_copy_when_dtype_matches(self):
        module, layer = self._linear_layer(bias=False)
        assert np.shares_memory(layer.get_gradient(), module.weight.grad)

    def test_set_gradient_no_copy_when_dtype_matches(self):
        """The write-back lands in the buffer the gradient already occupies: nothing is allocated or rebound."""
        module, layer = self._linear_layer(bias=False)
        buffer = module.weight.grad
        matrix = np.random.default_rng(2).standard_normal((4, 6)).astype(np.float32)
        layer.set_gradient(matrix)
        assert module.weight.grad is buffer
        np.testing.assert_array_equal(buffer, matrix)

    def test_layernorm_gradient_round_trip(self):
        module = LayerNorm(5)
        module.weight.grad = np.ones(5, dtype=np.float32)
        module.bias.grad = np.zeros(5, dtype=np.float32)
        layer = make_kfac_layer("ln", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        matrix = np.random.default_rng(3).standard_normal((5, 2)).astype(np.float32)
        layer.set_gradient(matrix)
        np.testing.assert_array_equal(module.weight.grad, matrix[:, 0])
        np.testing.assert_array_equal(module.bias.grad, matrix[:, 1])

    def test_precondition_passthrough_keeps_float32_inputs(self):
        """precondition_with_eigen with already-f32 inputs must not copy the
        eigenvector matrices (astype(..., copy=False) passthrough)."""
        eig = symmetric_eigen(spd_factor(6, 1))
        assert eig.eigenvectors.dtype == np.float32
        passthrough = eig.eigenvectors.astype(np.float32, copy=False)
        assert passthrough is eig.eigenvectors


# ---------------------------------------------------------------------------
# Standalone layers own their backend (the contraction scratch is per instance)
# ---------------------------------------------------------------------------


class TestStandaloneLayerBackend:
    """A ``KFACLayer`` built without a ``KFAC`` used to share one module-level
    backend.  The only backend now owns ``out=`` contraction buffers, so two
    threaded ranks building layers directly would race on them."""

    @staticmethod
    def _ready_layer(seed):
        """A 48 -> 40 Linear handler with eigen state and a gradient to precondition."""
        module = Linear(48, 40, rng=np.random.default_rng(0))
        layer = make_kfac_layer("lin", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        layer.factor_a, layer.factor_g = spd_factor(49, seed), spd_factor(40, seed + 1)
        decompose_standalone(layer, damping=0.003)
        rng = np.random.default_rng(seed + 2)
        module.weight.grad = rng.standard_normal((40, 48)).astype(np.float32)
        module.bias.grad = rng.standard_normal(40).astype(np.float32)
        return layer

    def test_each_standalone_layer_builds_its_own_instance(self):
        first, second = self._ready_layer(1), self._ready_layer(1)
        assert type(first.kernels) is KernelBackend and first.kernels is not second.kernels
        first.precondition(0.003), second.precondition(0.003)
        for pool in ("_contract_scratch", "_contract_scratch2"):
            (mine,), (theirs,) = getattr(first.kernels, pool).values(), getattr(second.kernels, pool).values()
            assert not np.shares_memory(mine, theirs)

    def test_two_threads_preconditioning_same_shape_layers_do_not_race(self):
        """Each thread builds its layer (as a rank of a threaded world would) and
        preconditions it repeatedly while the others do the same with different
        data: every result must equal the serial one.  With one shared backend the
        contractions interleave on the same scratch buffers.  More threads than
        cores and a short switch interval, so they really do interleave."""
        rounds, seeds = 100, (10, 20, 30, 40)
        expected = {seed: self._ready_layer(seed).precondition(0.003).copy() for seed in seeds}
        built, wrong, errors = {}, [], []
        barrier = threading.Barrier(len(seeds))

        def rank(seed):
            try:
                layer = built[seed] = self._ready_layer(seed)
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    if not np.array_equal(layer.precondition(0.003), expected[seed]):
                        wrong.append(seed)
            except Exception as error:  # reported by the assertion below
                errors.append(error)
                barrier.abort()

        threads = [threading.Thread(target=rank, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads), errors
        total = rounds * len(seeds)
        assert not wrong, f"{len(wrong)} of {total} concurrent contractions differ from the serial result"
        # What rules the interleaving out, not luck: no two layers share an instance.
        assert len({id(layer.kernels) for layer in built.values()}) == len(seeds)


# ---------------------------------------------------------------------------
# End-to-end parity: reference vs batched
# ---------------------------------------------------------------------------


def make_preconditioner(model, config, backend, **run_objects):
    """A preconditioner on the built-in backend (``"batched"``) or on the oracle's kernels (``"reference"``)."""
    pre = KFAC.from_config(model, config, **run_objects)
    return use_reference_kernels(pre) if backend == "reference" else pre


def train_trajectory(backend, mode="sync", grad_worker_frac=1.0, adaptive=False,
                     precision="fp32", comm=None, steps=6, seed=11):
    """Train a small MLP for ``steps``; return per-step parameter snapshots."""
    x, y = make_problem(seed, samples=128)
    loss_fn = nn.CrossEntropyLoss()
    model = MLP(6, [16, 16], 3, rng=np.random.default_rng(5))
    config = KFACConfig(
        lr=0.05,
        factor_update_freq=2,
        inv_update_freq=2 if adaptive else 4,
        grad_worker_frac=grad_worker_frac,
        precision=precision,
        # "sync": a cap below any tensor, one message per tensor; otherwise the fused
        # default.  Both run the trainer's default (never armed) pipeline; "hooked"
        # hands it an instance, which it arms.
        bucket_cap_mb=1e-6 if mode == "sync" else 25.0,
        drift_tol=0.5 if adaptive else 0.0,
        max_staleness=8 if adaptive else 0,
    )
    pre = make_preconditioner(model, config, backend, comm=comm)
    optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
    pipeline = (
        GradientPipeline(model, comm=pre.comm, bucket_cap_mb=0.001) if mode == "hooked" else None
    )
    trainer = Trainer(
        model,
        optimizer,
        lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
        preconditioner=pre,
        comm=comm,
        pipeline=pipeline,
    )
    rng = np.random.default_rng(seed + 1)
    snapshots = []
    for _ in range(steps):
        indices = rng.integers(0, len(x), 32)
        if comm is not None:
            indices = indices[comm.rank :: comm.world_size]
        trainer.train_step((x[indices], y[indices]))
        snapshots.append(np.concatenate([p.data.ravel().copy() for p in model.parameters()]))
    return snapshots, pre


class TestTrainingParity:
    @pytest.mark.parametrize("mode", ["sync", "overlap", "hooked"])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_single_process_parity(self, mode, adaptive):
        reference, _ = train_trajectory("reference", mode=mode, adaptive=adaptive)
        batched, _ = train_trajectory("batched", mode=mode, adaptive=adaptive)
        for expected, actual in zip(reference, batched):
            np.testing.assert_allclose(actual, expected, rtol=EIGH_RTOL, atol=EIGH_ATOL)

    @pytest.mark.parametrize("mode", ["sync", "overlap", "hooked"])
    @pytest.mark.parametrize("grad_worker_frac", [0.25, 0.5, 1.0])
    def test_distributed_parity_all_strategies(self, grad_worker_frac, mode):
        """MEM-OPT / HYBRID-OPT / COMM-OPT x per-tensor/fused/hooked: the batched
        backend reproduces the reference trajectory at the eigh tolerance."""

        def program(comm):
            out = {}
            for backend in ("reference", "batched"):
                out[backend], _ = train_trajectory(
                    backend, mode=mode, grad_worker_frac=grad_worker_frac, comm=comm
                )
            return out

        for result in run_spmd(4, program):
            for expected, actual in zip(result["reference"], result["batched"]):
                np.testing.assert_allclose(actual, expected, rtol=EIGH_RTOL, atol=EIGH_ATOL)

    @pytest.mark.parametrize("grad_worker_frac", [0.25, 1.0])
    def test_distributed_adaptive_due_subsets(self, grad_worker_frac):
        """Batched eigen only ever sees the adaptive scheduler's due layers;
        plans (which depend on bitwise-identical factors) match across
        backends, so trajectories agree at the eigh tolerance."""

        def program(comm):
            out = {}
            for backend in ("reference", "batched"):
                before = comm.tracer.counters()
                snapshots, _ = train_trajectory(
                    backend, grad_worker_frac=grad_worker_frac, adaptive=True, comm=comm, steps=8
                )
                # What this run's refresh decisions added to the rank's registry.
                decisions = {
                    key: value - before.get(key, 0.0) for key, value in comm.tracer.counters().items() if key.startswith("kfac/")
                }
                out[backend] = (snapshots, decisions)
            return out

        for result in run_spmd(4, program):
            (ref_snaps, ref_totals) = result["reference"]
            (bat_snaps, bat_totals) = result["batched"]
            assert ref_totals == bat_totals  # identical due-set decisions
            for expected, actual in zip(ref_snaps, bat_snaps):
                np.testing.assert_allclose(actual, expected, rtol=EIGH_RTOL, atol=EIGH_ATOL)

    @pytest.mark.parametrize("precision", ["fp32", "fp64", "amp"])
    def test_mixed_precision_parity(self, precision):
        reference, _ = train_trajectory("reference", precision=precision)
        batched, _ = train_trajectory("batched", precision=precision)
        # fp16 factor storage quantizes eigen inputs, amplifying solver noise.
        rtol, atol = (EIGH_RTOL, 1e-4) if precision != "amp" else (5e-2, 1e-3)
        for expected, actual in zip(reference, batched):
            np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)

    def test_kernel_dispatch_traced(self):
        """The batched eigen stage emits kfac/kernel_dispatch instants naming
        the backend and the shape-group batch sizes."""
        x, y = make_problem(3)
        loss_fn = nn.CrossEntropyLoss()
        model = MLP(6, [16, 16], 3, rng=np.random.default_rng(5))
        pre = KFAC.from_config(model, KFACConfig(factor_update_freq=1, inv_update_freq=1))
        tracer = pre.comm.tracer
        tracer.enabled = True
        model.zero_grad()
        loss_fn(model(Tensor(x[:32])), y[:32]).backward()
        pre.step()
        dispatches = [record for record in tracer.instants if record.name == "kfac/kernel_dispatch"]
        assert len(dispatches) == 1
        attrs = dispatches[0].attrs
        assert attrs["backend"] == "batched"
        # MLP(6,[16,16],3): A dims 7,17,17 and G dims 16,16,3 -> 6 factors in
        # 4 shape groups, two of which batch 2 same-shape factors.
        assert attrs["factors"] == 6
        assert sum(attrs["batch_sizes"]) == 6
        assert sorted(attrs["batch_sizes"], reverse=True)[0] == 2

    def test_reference_backend_is_bitwise_noop(self):
        """Swapping the oracle in is deterministic: two reference runs agree
        bit for bit (so any reference-vs-batched gap is the kernels')."""
        first, _ = train_trajectory("reference")
        second, _ = train_trajectory("reference")
        for expected, actual in zip(first, second):
            np.testing.assert_array_equal(actual, expected)


# ---------------------------------------------------------------------------
# Checkpoint resume with the backend flipped between save and load
# ---------------------------------------------------------------------------


class TestCheckpointBackendFlip:
    def _run(self, pre, model, batches, x, y):
        loss_fn = nn.CrossEntropyLoss()
        snapshots = []
        for indices in batches:
            model.zero_grad()
            loss_fn(model(Tensor(x[indices])), y[indices]).backward()
            pre.step()
            snapshots.append(
                np.concatenate([np.asarray(p.grad).ravel().copy() for p in model.parameters()])
            )
        return snapshots

    @pytest.mark.parametrize("save_backend,load_backend", [("reference", "batched"), ("batched", "reference")])
    def test_resume_with_flipped_backend(self, save_backend, load_backend):
        x, y = make_problem(21, samples=128)
        rng = np.random.default_rng(33)
        warmup = [rng.integers(0, len(x), 32) for _ in range(5)]
        future = [rng.integers(0, len(x), 32) for _ in range(4)]
        config = KFACConfig(factor_update_freq=2, inv_update_freq=4)

        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = make_preconditioner(model, config, save_backend)
        self._run(pre, model, warmup, x, y)
        checkpoint = pre.state_dict()
        model_state = model.state_dict()
        # The checkpoint names no backend, whichever kernels wrote it.
        assert "kernel_backend" not in checkpoint["config"]
        continued = self._run(pre, model, future, x, y)

        restored = MLP(6, [16], 3, rng=np.random.default_rng(99))
        restored.load_state_dict(model_state)
        pre2 = make_preconditioner(restored, config, load_backend)
        pre2.load_state_dict(checkpoint)
        resumed = self._run(pre2, restored, future, x, y)

        # The checkpoint stores factors/eigen state, not kernel identity:
        # resuming under the other kernels reproduces the trajectory within
        # the documented eigh tolerance tier (bitwise when they match).
        for expected, actual in zip(continued, resumed):
            np.testing.assert_allclose(actual, expected, rtol=EIGH_RTOL, atol=EIGH_ATOL)

    def test_resume_same_backend_is_bitwise(self):
        x, y = make_problem(21, samples=128)
        rng = np.random.default_rng(33)
        warmup = [rng.integers(0, len(x), 32) for _ in range(5)]
        future = [rng.integers(0, len(x), 32) for _ in range(4)]
        config = KFACConfig(factor_update_freq=2, inv_update_freq=4)

        model = MLP(6, [16], 3, rng=np.random.default_rng(5))
        pre = KFAC.from_config(model, config)
        self._run(pre, model, warmup, x, y)
        checkpoint = pre.state_dict()
        model_state = model.state_dict()
        continued = self._run(pre, model, future, x, y)

        restored = MLP(6, [16], 3, rng=np.random.default_rng(99))
        restored.load_state_dict(model_state)
        pre2 = KFAC.from_config(restored, config)
        pre2.load_state_dict(checkpoint)
        for expected, actual in zip(continued, self._run(pre2, restored, future, x, y)):
            np.testing.assert_array_equal(actual, expected)


# ---------------------------------------------------------------------------
# Custom backends fall back gracefully
# ---------------------------------------------------------------------------


class TestCustomBackend:
    def test_partial_backend_inherits_reference_ops(self):
        """A backend overriding nothing behaves exactly like the built-in one."""

        class PassthroughBackend(KernelBackend):
            pass

        backend = PassthroughBackend()
        for dim in (8, STACK_EIGH_MAX_DIM + 8):  # the stacked path and the syevd path
            factor = spd_factor(dim, 1)
            builtin = make_kernel_backend("batched").symmetric_eigen(factor)
            actual = backend.symmetric_eigen(factor)
            np.testing.assert_array_equal(actual.eigenvalues, builtin.eigenvalues)
            np.testing.assert_array_equal(actual.eigenvectors, builtin.eigenvectors)
            (grouped,) = backend.batched_symmetric_eigen([factor])
            np.testing.assert_array_equal(grouped.eigenvectors, builtin.eigenvectors)
        # Above the stacking threshold the solver is the public single-factor one.
        wide = spd_factor(STACK_EIGH_MAX_DIM + 8, 2)
        np.testing.assert_array_equal(
            backend.symmetric_eigen(wide).eigenvectors, symmetric_eigen(wide).eigenvectors
        )
