"""Tests for the K-FAC numerical kernels (Eqs. 4-5, 11-17 of the paper)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_oracle import scipy_syevd
from repro.kfac import kmath
from repro.kfac import (
    kl_clip_scale,
    precondition_with_eigen,
    precondition_with_inverse,
    symmetric_eigen,
)
from repro.kfac import FactorRepr, KernelBackend, expand_triangle, pack_triangle
from repro.kfac.kmath import eigenvalue_outer_product, split_damping, tikhonov_pi, triangle_dim

RNG = np.random.default_rng(5)


def factor_dampings(a, g, damping):
    """``(γ_a, γ_g)``: the π split every solve path applies, π from the two factors' traces."""
    return split_damping(damping, tikhonov_pi(pack_triangle(a), pack_triangle(g), *map(FactorRepr.dense, (len(a), len(g)))))


def cholesky_inverse(factor, damping):
    """``(factor + γI)⁻¹`` as a square, from the kernel backend's Cholesky task (one dense factor)."""
    return kmath.expand_symmetric(held_inverse(factor, damping).packed())


def held_inverse(factor, damping):
    """``(factor + γI)⁻¹`` as a holder keeps it: the task's packed triangle installed in a view of its own square."""
    (packed,) = KernelBackend().inverse_task([pack_triangle(factor)], FactorRepr.dense(factor.shape[0]), [damping])()
    (view,) = kmath.hold_triangles([factor.shape[0]], np.float32)
    view.install(packed)
    return view


def random_spd(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, n))
    return (root @ root.T / n * scale + 1e-3 * np.eye(n)).astype(np.float32)


class TestKroneckerProperties:
    """Numerical checks of the Kronecker identities the method relies on."""

    def test_inverse_of_kronecker_is_kronecker_of_inverses(self):
        a, b = random_spd(4, 1), random_spd(3, 2)
        left = np.linalg.inv(np.kron(a.astype(np.float64), b.astype(np.float64)))
        right = np.kron(np.linalg.inv(a.astype(np.float64)), np.linalg.inv(b.astype(np.float64)))
        np.testing.assert_allclose(left, right, rtol=1e-4)

    def test_kronecker_vector_product_identity(self):
        # (A ⊗ B) vec(C) = vec(B C Aᵀ) with row-major vec convention.
        a, b = RNG.standard_normal((3, 3)), RNG.standard_normal((4, 4))
        c = RNG.standard_normal((4, 3))
        left = (np.kron(a, b) @ c.reshape(-1, order="F")).reshape(4, 3, order="F")
        right = b @ c @ a.T
        np.testing.assert_allclose(left, right, rtol=1e-6)

    def test_damped_kronecker_inverse_factorisation(self):
        # Eq. 12: (A + γI)⁻¹ ⊗ (G + γI)⁻¹ equals the inverse of (A+γI) ⊗ (G+γI).
        a, g = random_spd(3, 3), random_spd(2, 4)
        gamma = 0.01
        left = np.kron(cholesky_inverse(a, gamma), cholesky_inverse(g, gamma))
        right = np.linalg.inv(np.kron(a + gamma * np.eye(3), g + gamma * np.eye(2)))
        np.testing.assert_allclose(left, right, rtol=1e-3, atol=1e-5)


class TestSymmetricEigen:
    def test_reconstruction(self):
        factor = random_spd(8, 7)
        eig = symmetric_eigen(factor)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        np.testing.assert_allclose(recon, factor, rtol=1e-3, atol=1e-4)

    def test_eigenvectors_orthogonal(self):
        eig = symmetric_eigen(random_spd(6, 8))
        np.testing.assert_allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(6), atol=1e-4)

    def test_negative_eigenvalues_clamped(self):
        factor = np.array([[1.0, 0.0], [0.0, -0.5]], dtype=np.float32)
        eig = symmetric_eigen(factor, clamp_negative=True)
        assert np.all(eig.eigenvalues >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.zeros((3, 4), dtype=np.float32))

    def test_fp16_storage_roundtrip(self):
        eig = symmetric_eigen(random_spd(5, 9)).astype(np.float16)
        assert eig.eigenvectors.dtype == np.float16
        assert eig.nbytes == eig.eigenvectors.nbytes + eig.eigenvalues.nbytes

    def test_compute_dtype_respected(self):
        eig = symmetric_eigen(random_spd(5, 9), compute_dtype=np.float64)
        assert eig.eigenvectors.dtype == np.float64

    @pytest.mark.parametrize("layout", ["c_ordered", "f_ordered", "non_contiguous"])
    @pytest.mark.parametrize("dim", [33, 128, 129, 513])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_scipys_wrapper_of_the_same_driver(self, dtype, dim, layout):
        """Eigenvalues *and* eigenvectors, whatever the memory layout; the input is left alone."""
        factor = random_spd(dim, seed=dim).astype(dtype)
        factor[-1, 0] += 1e-3  # not exactly symmetric: a square's upper triangle is the factor, the rest is not read
        if layout == "f_ordered":
            factor = np.asfortranarray(factor)
        elif layout == "non_contiguous":
            factor = np.ascontiguousarray(np.pad(factor, ((0, 0), (0, 3))))[:, :dim]
            assert not factor.flags.c_contiguous and not factor.flags.f_contiguous
        before = factor.copy()
        eig = symmetric_eigen(factor, compute_dtype=dtype, clamp_negative=False)
        eigenvalues, eigenvectors = scipy_syevd(np.triu(before) + np.triu(before, 1).T)
        packed = symmetric_eigen(pack_triangle(factor), compute_dtype=dtype, clamp_negative=False)
        np.testing.assert_array_equal(packed.eigenvalues, eig.eigenvalues)  # one solve path, two accepted inputs
        np.testing.assert_array_equal(packed.eigenvectors, eig.eigenvectors)
        assert eig.eigenvalues.dtype == eig.eigenvectors.dtype == dtype
        np.testing.assert_array_equal(eig.eigenvalues, eigenvalues)
        np.testing.assert_array_equal(eig.eigenvectors, eigenvectors)
        # Same layout as SciPy's result too: downstream GEMMs round by layout.
        assert eig.eigenvectors.flags.f_contiguous == eigenvectors.flags.f_contiguous
        np.testing.assert_array_equal(factor, before)

    def test_clamp_and_solve_dtype_options_on_the_direct_call(self):
        factor = random_spd(40, 3) - 0.5 * np.eye(40, dtype=np.float32)  # indefinite
        eigenvalues, eigenvectors = scipy_syevd(factor)
        assert eigenvalues.min() < 0
        raw = symmetric_eigen(factor, clamp_negative=False)
        clamped = symmetric_eigen(factor)
        np.testing.assert_array_equal(raw.eigenvalues, eigenvalues)
        np.testing.assert_array_equal(clamped.eigenvalues, np.maximum(eigenvalues, 0.0))
        np.testing.assert_array_equal(clamped.eigenvectors, eigenvectors)
        # eigh_dtype forces the solve precision; the result comes back in compute_dtype.
        forced = symmetric_eigen(factor, compute_dtype=np.float32, eigh_dtype=np.float64, clamp_negative=False)
        wide_values, wide_vectors = scipy_syevd(factor.astype(np.float64))
        assert forced.eigenvalues.dtype == forced.eigenvectors.dtype == np.float32
        np.testing.assert_array_equal(forced.eigenvalues, wide_values.astype(np.float32))
        np.testing.assert_array_equal(forced.eigenvectors, wide_vectors.astype(np.float32))
        # fp16 factors are solved in single precision (paper section 3.3) and handed back as fp16.
        half = symmetric_eigen(factor.astype(np.float16), compute_dtype=np.float16, clamp_negative=False)
        half_values, _ = scipy_syevd(factor.astype(np.float16).astype(np.float32))
        assert half.eigenvalues.dtype == np.float16
        np.testing.assert_array_equal(half.eigenvalues, half_values.astype(np.float16))
        with pytest.raises(TypeError, match="float32 or float64"):
            symmetric_eigen(factor, eigh_dtype=np.float16)

    def test_dimension_beyond_the_32_bit_workspace_is_rejected_up_front(self):
        huge = np.lib.stride_tricks.as_strided(np.zeros(1, dtype=np.float32), shape=(32768, 32768), strides=(0, 0))
        with pytest.raises(ValueError, match="dimension 32768 needs a workspace beyond"):
            symmetric_eigen(huge)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_raises_value_error_naming_the_dimension(self, poison):
        factor = random_spd(37, 1)
        factor[5, 9] = poison
        before = factor.copy()
        with pytest.raises(ValueError, match="dimension 37 contains infs or NaNs"):
            symmetric_eigen(factor)
        np.testing.assert_array_equal(factor, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lapack_info_raises_linalg_error_carrying_it(self, monkeypatch, dtype):
        """A solve LAPACK reports as not converged (``info > 0``) is an error, not a silent wrong answer."""

        def not_converged(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info):
            assert (jobz, uplo, n.value, lda.value) == (b"V", b"L", 41, 41)
            assert (lwork.value, liwork.value) == (1 + 6 * 41 + 2 * 41 * 41, 3 + 5 * 41)
            info.value = 3

        monkeypatch.setitem(kmath._SYEVD, np.dtype(dtype), not_converged)
        with pytest.raises(np.linalg.LinAlgError, match=r"dimension 41: info=3"):
            symmetric_eigen(random_spd(41, 2), compute_dtype=dtype)


class TestPreconditioning:
    """The eigen path (Eqs. 15-17) must match the explicit damped inverse (Eq. 12), both π-damped."""

    @pytest.mark.parametrize("damping", [0.3, 0.03, 0.003])
    def test_eigen_path_matches_explicit_inverse(self, damping):
        a, g = random_spd(6, 11), random_spd(4, 12, scale=20.0)  # traces far apart: π ≠ 1
        grad = RNG.standard_normal((4, 6)).astype(np.float32)
        eig_a, eig_g = symmetric_eigen(a), symmetric_eigen(g)
        via_eigen = precondition_with_eigen(grad, eig_a, eig_g, damping)
        # Explicit: vec-form ((A + γ_a I) ⊗ (G + γ_g I))⁻¹ vec(grad) (row-major layout).
        damping_a, damping_g = factor_dampings(a, g, damping)
        damped = np.kron(a.astype(np.float64) + damping_a * np.eye(6), g.astype(np.float64) + damping_g * np.eye(4))
        explicit = np.linalg.solve(damped, grad.T.reshape(-1, order="C")).reshape(6, 4).T
        # The eigen path damps each factor's eigenvalues by its share of the split (π from Σλ, the
        # traces), which equals the exact inverse of the damped Kronecker product.
        np.testing.assert_allclose(via_eigen, explicit, rtol=2e-2, atol=1e-3)

    def test_inverse_path_matches_eigen_path_with_factored_damping(self):
        # Eq. 12 damps the factors individually, and so does the eigen path: both paths agree closely.
        a, g = random_spd(5, 13), random_spd(3, 14)
        grad = RNG.standard_normal((3, 5)).astype(np.float32)
        damping = 1e-6
        damping_a, damping_g = factor_dampings(a, g, damping)
        via_inverse = precondition_with_inverse(grad, held_inverse(a, damping_a), held_inverse(g, damping_g))
        via_eigen = precondition_with_eigen(grad, symmetric_eigen(a), symmetric_eigen(g), damping)
        scale = np.abs(via_eigen).max()
        np.testing.assert_allclose(via_inverse / scale, via_eigen / scale, atol=5e-2)

    def test_identity_factors_scale_gradient(self):
        # With A = G = I, π = 1 and each factor takes √γ: the preconditioned gradient is grad / (1 + √γ)².
        grad = RNG.standard_normal((3, 4)).astype(np.float32)
        eye_a = symmetric_eigen(np.eye(4, dtype=np.float32))
        eye_g = symmetric_eigen(np.eye(3, dtype=np.float32))
        out = precondition_with_eigen(grad, eye_a, eye_g, damping=0.5)
        np.testing.assert_allclose(out, grad / (1 + np.sqrt(0.5)) ** 2, rtol=1e-4)

    def test_cached_outer_product_matches_recomputation(self):
        a, g = random_spd(6, 15), random_spd(5, 16)
        grad = RNG.standard_normal((5, 6)).astype(np.float32)
        eig_a, eig_g = symmetric_eigen(a), symmetric_eigen(g)
        outer = eigenvalue_outer_product(eig_a, eig_g, 0.01)
        without_cache = precondition_with_eigen(grad, eig_a, eig_g, 0.01)
        with_cache = precondition_with_eigen(grad, eig_a, eig_g, 0.01, inverse_outer=outer)
        np.testing.assert_allclose(without_cache, with_cache, rtol=1e-6)

    def test_preconditioning_is_linear_in_gradient(self):
        a, g = random_spd(4, 17), random_spd(3, 18)
        eig_a, eig_g = symmetric_eigen(a), symmetric_eigen(g)
        g1 = RNG.standard_normal((3, 4)).astype(np.float32)
        g2 = RNG.standard_normal((3, 4)).astype(np.float32)
        combined = precondition_with_eigen(g1 + g2, eig_a, eig_g, 0.01)
        separate = precondition_with_eigen(g1, eig_a, eig_g, 0.01) + precondition_with_eigen(g2, eig_a, eig_g, 0.01)
        np.testing.assert_allclose(combined, separate, rtol=1e-3, atol=1e-5)

    def test_larger_damping_shrinks_update(self):
        a, g = random_spd(4, 19), random_spd(4, 20)
        grad = RNG.standard_normal((4, 4)).astype(np.float32)
        eig_a, eig_g = symmetric_eigen(a), symmetric_eigen(g)
        small = np.linalg.norm(precondition_with_eigen(grad, eig_a, eig_g, 0.001))
        large = np.linalg.norm(precondition_with_eigen(grad, eig_a, eig_g, 10.0))
        assert large < small


class TestKLClip:
    def test_scale_capped_at_one(self):
        grad = np.full((2, 2), 1e-6, dtype=np.float32)
        assert kl_clip_scale([(grad, grad)], lr=0.1, kl_clip=0.001) == 1.0

    def test_large_updates_scaled_down(self):
        grad = np.full((10, 10), 10.0, dtype=np.float32)
        nu = kl_clip_scale([(grad, grad)], lr=1.0, kl_clip=0.001)
        assert 0 < nu < 1

    def test_scale_decreases_with_lr(self):
        grad = np.full((4, 4), 2.0, dtype=np.float32)
        low = kl_clip_scale([(grad, grad)], lr=0.01, kl_clip=0.001)
        high = kl_clip_scale([(grad, grad)], lr=1.0, kl_clip=0.001)
        assert high <= low

    def test_non_positive_inner_product_returns_one(self):
        grad = np.ones((2, 2), dtype=np.float32)
        assert kl_clip_scale([(grad, -grad)], lr=1.0, kl_clip=0.001) == 1.0


class TestTriangularPacking:
    """``?trttp`` / ``?tpttr``: the one storage form of a dense symmetric factor, held to plain indexing."""

    def test_roundtrip(self):
        factor = random_spd(7, 21)
        packed = pack_triangle(factor)
        assert packed.shape == (28,) and packed.dtype == factor.dtype
        np.testing.assert_array_equal(packed, factor[np.triu_indices(7)])  # row by row, LAPACK's packed 'L'
        np.testing.assert_array_equal(FactorRepr.dense(7).to_dense(packed), factor)

    def test_packed_size_formula(self):
        assert FactorRepr.dense(4).packed_numel == 10 and triangle_dim(10) == 4
        assert FactorRepr.dense(1).packed_numel == 1 and triangle_dim(1) == 1
        for not_triangular in (0, 2, 4, 5, 11):
            with pytest.raises(ValueError, match="not the packed triangle"):
                triangle_dim(not_triangular)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            pack_triangle(np.zeros((2, 3)))
        with pytest.raises(TypeError, match="floating-point"):
            pack_triangle(np.zeros((2, 2), dtype=np.int64))

    def test_unpack_size_mismatch(self):
        with pytest.raises(ValueError, match="cannot expand"):
            expand_triangle(np.zeros(5, dtype=np.float32), np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(TypeError, match="float32 or float64"):
            expand_triangle(np.zeros(10, dtype=np.float32), np.zeros((4, 4), dtype=np.float64))
        with pytest.raises(ValueError, match="contiguous"):
            expand_triangle(np.zeros(10, dtype=np.float32), np.zeros((4, 8), dtype=np.float32)[:, ::2])

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, n):
        factor = random_spd(n, seed=n)
        np.testing.assert_array_equal(FactorRepr.dense(n).to_dense(pack_triangle(factor)), factor)

    def test_volume_saving_approaches_half(self):
        n = 200
        assert FactorRepr.dense(n).packed_numel / (n * n) < 0.51

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_any_float_dtype_and_layout_and_read_only_operands(self, dtype, order):
        """Only the upper triangle is read, whatever the layout; fp16 goes through float32 exactly; nothing is written."""
        n = 9
        factor = np.asarray(random_spd(n, 4).astype(dtype), order=order)
        factor[np.tril_indices(n, -1)] = 77  # the lower triangle is not part of the storage form
        expected = factor[np.triu_indices(n)]
        factor.setflags(write=False)
        packed = pack_triangle(factor)
        assert packed.dtype == dtype
        np.testing.assert_array_equal(packed, expected)
        packed.setflags(write=False)
        dense = FactorRepr.dense(n).to_dense(packed)
        assert dense.dtype == dtype
        np.testing.assert_array_equal(dense[np.triu_indices(n)], expected)
        np.testing.assert_array_equal(dense, dense.T)

    def test_expand_fills_one_triangle_of_the_memory_it_is_given(self):
        """Column-major: the lower triangle ``syevd`` reads under ``UPLO='L'``; row-major: the upper; the rest untouched."""
        n = 6
        factor = random_spd(n, 8)
        packed = pack_triangle(factor)
        for order, filled, untouched in (("F", np.tril_indices(n), np.triu_indices(n, 1)), ("C", np.triu_indices(n), np.tril_indices(n, -1))):
            out = np.full((n, n), -1.0, dtype=np.float32, order=order)
            assert expand_triangle(packed, out) is out
            np.testing.assert_array_equal(out[filled], factor[filled])
            assert (out[untouched] == -1.0).all()
