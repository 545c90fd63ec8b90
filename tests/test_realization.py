"""Kernel-space realization: Gram matrices, the model and its uniqueness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from helpers import (
    ZerosTooClose,
    band_length,
    count_full_reductions,
    kernel_basis,
    random_blaschke,
    reference_uniqueness_residual,
)
from schurcol import tolerances as tol
from schurcol.sampling import disc_samples


class TestKernelBasis:
    """The Pick-matrix reference of the test helpers."""

    def test_gram_by_hand(self):
        basis = kernel_basis((0.0, 0.5))
        assert_allclose(basis.gram, [[1.0, 1.0], [1.0, 4.0 / 3.0]])

    def test_kernel_values_reproduce_gram(self):
        zeros = (0.2 + 0.1j, -0.5j, 0.6)
        basis = kernel_basis(zeros)
        for j, zj in enumerate(zeros):
            for k, zk in enumerate(zeros):
                assert_allclose(
                    1.0 / (1.0 - zj * np.conj(zk)), basis.gram[j, k]
                )

    def test_positive_definite_with_conditioning(self):
        rng = np.random.default_rng(60)
        b = random_blaschke(rng, 6)
        basis = kernel_basis(b.zeros)
        assert basis.eigenvalues.min() > 0.0
        assert_allclose(
            basis.cholesky @ basis.cholesky.conj().T, basis.gram, atol=1e-12
        )

    def test_separation_guard(self):
        with pytest.raises(ZerosTooClose):
            kernel_basis((0.5, 0.5 + 1e-6))


class TestModelColligation:
    def test_single_zero_at_origin(self):
        col = sc.model_colligation(sc.BlaschkeProduct(-1.0, (0.0,)))
        assert_allclose(col.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_single_offset_zero(self):
        col = sc.model_colligation(sc.BlaschkeProduct(1.0, (0.5,)))
        r = np.sqrt(0.75)
        assert_allclose(col.matrix, [[0.5, r], [-r, 0.5]], atol=1e-14)

    def test_matches_source_function(self):
        b = sc.BlaschkeProduct(1.0, (0.3, -0.4j))
        col = sc.model_colligation(b)
        s = sc.blaschke_to_rational(b)
        for z in disc_samples(30, radius=0.9):
            assert_allclose(
                sc.characteristic_function(col, z), s.evaluate(z), atol=1e-10
            )

    def test_minimal_for_random_products(self):
        rng = np.random.default_rng(61)
        for n in (1, 3, 5, 8):
            b = random_blaschke(rng, n)
            col = sc.model_colligation(b)
            assert band_length(col) == n
            assert col.minimal

    def test_degree_zero(self):
        col = sc.model_colligation(sc.BlaschkeProduct(1.0j, ()))
        assert col.matrix.shape == (1, 1)
        assert sc.characteristic_function(col, 0.4) == 1.0j

    def test_zero_at_origin_among_others(self):
        b = sc.BlaschkeProduct(1.0, (0.0, 0.5, -0.3j))
        col = sc.model_colligation(b)
        s = sc.blaschke_to_rational(b)
        for z in disc_samples(20, radius=0.85):
            assert_allclose(
                sc.characteristic_function(col, z), s.evaluate(z), atol=1e-11
            )


def zero_product(b, z):
    return b.c * np.prod([(zk - z) / (1.0 - z * np.conj(zk)) for zk in b.zeros])


def random_zeros(rng, n, rmax):
    r = rmax * np.sqrt(rng.uniform(size=n))
    return tuple(r * np.exp(2j * np.pi * rng.uniform(size=n)))


class TestCascade:
    """The cascade stays unitary and exact where a Gram basis breaks down."""

    def assert_realizes(self, b):
        col = sc.model_colligation(b)
        assert sc.unitarity_residual(col.matrix) <= tol.UNITARY
        for z in disc_samples(30, radius=0.9):
            assert abs(sc.characteristic_function(col, z) - zero_product(b, z)) <= 1e-10

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_random_zeros(self, n):
        rng = np.random.default_rng(64 + n)
        self.assert_realizes(sc.BlaschkeProduct(1.0j, random_zeros(rng, n, 0.8)))

    def test_clustered_zeros(self):
        ring = 0.9 + 0.01 * np.exp(2j * np.pi * np.arange(10) / 10)
        self.assert_realizes(sc.BlaschkeProduct(-1.0, tuple(ring)))

    def test_repeated_zero(self):
        self.assert_realizes(sc.BlaschkeProduct(1.0, (0.3 + 0.2j,) * 8))

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_kernel_space_gram(self, n):
        # x_w = (I - conj(w) D*)^{-1} B* at the zeros reproduce the Pick matrix
        rng = np.random.default_rng(65)
        b = random_blaschke(rng, n, rmax=0.8)
        col = sc.model_colligation(b)
        eye = np.eye(n)
        X = np.column_stack(
            [
                np.linalg.solve(eye - np.conj(w) * col.D.conj().T, col.B.conj())
                for w in b.zeros
            ]
        )
        gram = kernel_basis(b.zeros).gram
        assert_allclose(X.conj().T @ X, gram, rtol=0, atol=1e-12)


class TestUniqueness:
    """Two minimal realizations of one product intertwine (the helpers reference)."""

    def test_single_zero(self):
        assert reference_uniqueness_residual(sc.BlaschkeProduct(-1.0, (0.0,))) <= 1e-12

    def test_degree_two(self):
        b = sc.BlaschkeProduct(1.0, (0.3, -0.4j))
        assert reference_uniqueness_residual(b) <= 1e-9

    def test_close_zeros_accepted(self):
        b = sc.BlaschkeProduct(1.0, (0.5, 0.5 + 1e-6))
        assert reference_uniqueness_residual(b) <= 1e-9

    def test_one_reduction_per_check(self, monkeypatch):
        # the cascade is reduced once; the closed form is its own lower form
        entered = count_full_reductions(monkeypatch)
        reference_uniqueness_residual(random_blaschke(np.random.default_rng(64), 6))
        assert len(entered) <= 1

    def test_random_products(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            assert reference_uniqueness_residual(b) <= 1e-9
