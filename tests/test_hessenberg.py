"""Hessenberg reduction, its dense reference and the minimality criterion."""

import io
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol import cli
from schurcol.colligation import BLOCK, _in_lower_form
from schurcol.sampling import disc_samples
from helpers import (
    assert_stored_exactly,
    count_full_reductions,
    count_reductions,
    hankel_rank,
    random_blaschke,
    random_params,
    random_unitary,
    reference_reduction,
    reference_reflector,
)


def gauge(matrix, v):
    g = np.eye(len(matrix), dtype=complex)
    g[1:, 1:] = v
    return g.conj().T @ matrix @ g


def gauged_parameter_matrix(rng, n, rmax=0.95):
    closed = sc.closed_form_matrix(random_params(rng, n, rmax=rmax))
    return gauge(closed, random_unitary(rng, n))


class TestReferenceReflector:
    def test_swap_coordinates(self):
        v = reference_reflector([0.0, 1.0])
        assert_allclose(np.array([0.0, 1.0]) @ v, [1.0, 0.0], atol=1e-15)

    def test_already_normalized(self):
        v = reference_reflector([2.5, 0.0, 0.0])
        assert_allclose(v, np.eye(3))

    def test_pure_phase(self):
        v = reference_reflector([1.0j, 0.0])
        assert_allclose(np.array([1.0j, 0.0]) @ v, [1.0, 0.0], atol=1e-15)
        assert_allclose(v[0, 0], -1.0j)


class TestLowerReduction:
    def test_fixed_point(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        cert = sc.reduce_to_special_lower_hessenberg(col.matrix)
        assert_allclose(cert.H, col.matrix)
        assert_allclose(cert.V, np.eye(2))

    def test_random_unitary_structure(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = random_unitary(rng, 5)
            cert = sc.reduce_to_special_lower_hessenberg(m)
            assert np.abs(np.triu(cert.H, 2)).max() <= 1e-12
            band = np.diagonal(cert.H, 1)
            assert np.abs(band.imag).max() <= 1e-12
            assert band.real.min() >= -1e-12
            assert sc.unitarity_residual(cert.V) <= 1e-12

    def test_reduced_row_tails_are_exact(self):
        # every reflected tail is stored as [|tail|, 0, ..., 0]
        rng = np.random.default_rng(26)
        for size in (3, 9, 33):
            cert = sc.reduce_to_special_lower_hessenberg(random_unitary(rng, size))
            assert not np.triu(cert.H, 2).any()
            assert not np.diagonal(cert.H, 1).imag.any()
            upper = sc.reduce_to_special_upper_hessenberg(random_unitary(rng, size))
            assert not np.tril(upper.H, -2).any()

    def test_corner_entry_preserved(self):
        rng = np.random.default_rng(23)
        m = random_unitary(rng, 6)
        cert = sc.reduce_to_special_lower_hessenberg(m)
        assert cert.H[0, 0] == m[0, 0]

    def test_characteristic_function_invariant(self):
        rng = np.random.default_rng(24)
        m = random_unitary(rng, 5)
        col = sc.UnitaryColligation(m)
        reduced = sc.UnitaryColligation(
            sc.reduce_to_special_lower_hessenberg(m).H
        )
        for z in 0.9 * np.exp(2j * np.pi * np.arange(20) / 20):
            assert_allclose(
                sc.characteristic_function(reduced, z),
                sc.characteristic_function(col, z),
                atol=1e-10,
            )

    def test_gauge_independence_of_the_form(self):
        # HL-non-singular inputs have a unique reduced form, so reducing any
        # state-gauged copy must land on the same matrix
        rng = np.random.default_rng(25)
        m = random_unitary(rng, 5)
        h_ref = sc.reduce_to_special_lower_hessenberg(m).H
        for _ in range(5):
            w = random_unitary(rng, 4)
            h = sc.reduce_to_special_lower_hessenberg(gauge(m, w)).H
            assert np.abs(h - h_ref).max() <= 1e-10


class TestInPlaceReduction:
    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_agrees_with_dense_reference(self, n):
        # |s| <= 0.5 keeps the reduced matrix well conditioned; at larger
        # kappa = prod 1/d_j the two roundings of H drift apart (2e-5 to
        # 9e-5 at a gauged n = 64 with |s| <= 0.95), so H is compared only here
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            m = gauged_parameter_matrix(rng, n, rmax=0.5)
            cert = sc.reduce_to_special_lower_hessenberg(m)
            H, V = reference_reduction(m)
            assert np.abs(cert.H - H).max() <= 1e-12
            assert np.abs(cert.V - V).max() <= 1e-12

    def test_zero_row_tail_is_skipped(self):
        # a parameter colligation with an extra decoupled state, gauged on
        # the coupled states only: row n's tail is exactly zero
        rng = np.random.default_rng(210)
        n = 5
        block = np.zeros((n + 2, n + 2), dtype=complex)
        block[: n + 1, : n + 1] = gauged_parameter_matrix(rng, n)
        block[n + 1, n + 1] = np.exp(0.4j)
        cert = sc.reduce_to_special_lower_hessenberg(block)
        assert cert.band[n] == 0.0
        assert cert.band[:n].min() > 0.1
        assert np.array_equal(cert.H[:, n + 1], block[:, n + 1])
        # the Arnoldi basis breaks down after n steps and restarts from e_n
        assert not cert.V[:n, n].any() and not cert.V[n, :n].any()

    @pytest.mark.parametrize("eps", [1e-15, 1e-11, 1e-7, 1e-3])
    def test_nearly_reduced_input(self, eps):
        # a gauge within eps of I leaves every row tail within about eps of
        # a multiple of e_0; formed as a difference, a reflector's head
        # would lose eps_machine / eps and leave entries above the band
        rng = np.random.default_rng(240)
        n = 32
        closed = sc.closed_form_matrix(random_params(rng, n, rmax=0.5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, q = np.linalg.eigh(a + a.conj().T)
        near_identity = (q * np.exp(1j * eps * w)) @ q.conj().T
        cert = sc.reduce_to_special_lower_hessenberg(gauge(closed, near_identity))
        assert np.abs(cert.H - closed).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    def test_closed_form_is_a_fixed_point(self, n):
        # every row tail is already [d_r, 0, ...]: phase-only steps
        closed = sc.closed_form_matrix(random_params(np.random.default_rng(220 + n), n))
        cert = sc.reduce_to_special_lower_hessenberg(closed)
        assert np.abs(cert.H - closed).max() <= 1e-14
        assert np.abs(cert.V - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 8, 64, 128, 256])
    def test_certificate_holds_at_scale(self, n):
        # the reduction raises InternalInconsistency unless the gauge is
        # unitary and reconstructs H to 1e-11, so returning is the check
        m = gauged_parameter_matrix(np.random.default_rng(230 + n), n)
        cert = sc.reduce_to_special_lower_hessenberg(m)
        assert_stored_exactly(cert, m)
        assert sc.unitarity_residual(cert.V) <= 1e-11
        # the residuals it checked are those the product G* M G gives: the
        # same bits for the lower form; the upper form's product was taken
        # on M*, which rounds differently.  The closed form and its adjoint
        # take the exact-form shortcut, whose residuals are exactly 0
        assert stored_residuals(cert) == recomputed_residuals(cert, m)
        upper = sc.reduce_to_special_upper_hessenberg(m)
        assert_stored_exactly(upper, m)
        assert_allclose(
            stored_residuals(upper), recomputed_residuals(upper, m), rtol=0, atol=1e-15
        )
        closed = sc.closed_form_matrix(random_params(np.random.default_rng(230 + n), n))
        for exact, M in [
            (sc.reduce_to_special_lower_hessenberg(closed), closed),
            (sc.reduce_to_special_upper_hessenberg(closed.conj().T), closed.conj().T),
        ]:
            assert stored_residuals(exact) == recomputed_residuals(exact, M) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("path", ["exact_form", "arnoldi"])
    def test_non_finite_entry_is_rejected(self, path, bad):
        # on the diagonal of a closed form the matrix stays exactly in
        # lower form; above the band of a gauged one it takes the loop
        rng = np.random.default_rng(235)
        if path == "exact_form":
            m = sc.closed_form_matrix(random_params(rng, 6))
            m[3, 3] = bad
        else:
            m = gauged_parameter_matrix(rng, 6)
            m[1, 4] = bad
        with pytest.raises(sc.InternalInconsistency, match="non-finite"):
            sc.reduce_to_special_lower_hessenberg(m)
        with pytest.raises(sc.InternalInconsistency, match="non-finite"):
            sc.reduce_to_special_upper_hessenberg(m.conj().T)


class TestInputShape:
    """Both reductions take a non-empty square matrix and nothing else."""

    @pytest.mark.parametrize(
        "shape", [(1, 2), (2, 3), (3, 2), (1, 0), (0,), (0, 0), (), (2, 2, 2)]
    )
    @pytest.mark.parametrize(
        "reduce",
        [sc.reduce_to_special_lower_hessenberg, sc.reduce_to_special_upper_hessenberg],
    )
    def test_other_shapes_raise_dimension_mismatch(self, reduce, shape):
        m = np.random.default_rng(236).standard_normal(shape) + 0.5j
        with pytest.raises(sc.DimensionMismatch, match="non-empty square"):
            reduce(m)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_square_inputs_of_every_size_reduce(self, size):
        m = random_unitary(np.random.default_rng(237), size)
        for cert in (
            sc.reduce_to_special_lower_hessenberg(m),
            sc.reduce_to_special_upper_hessenberg(m),
        ):
            assert_stored_exactly(cert, m)
            assert cert.V.shape == (size - 1, size - 1)


def stored_residuals(cert):
    return cert.reconstruction, cert.gauge_unitarity


def recomputed_residuals(cert, M):
    """max|G* M G - H| / max|M| for G = diag(1, V), and the unitarity residual of V."""
    g = np.eye(len(M), dtype=complex)
    g[1:, 1:] = cert.V
    error = float(np.abs(g.conj().T @ M @ g - cert.H).max())
    reconstruction = error / float(np.abs(M).max())
    return reconstruction, sc.unitarity_residual(cert.V) if len(cert.V) else 0.0


class TestBreakdownRule:
    """A band entry within STRUCT of zero is stored as 0, and the basis restarts."""

    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_near_unimodular_parameter(self, n, where):
        # s_p = (1 - delta) i^p makes d_p = sqrt(2 delta), down to an exact
        # 0: minimal for every delta > 0 here (d_p >= 1.4e-8 against a band
        # cut of at most 6.5e-9), not minimal at delta = 0.  The gauge
        # leaves the reduced d_p its forward error (it reads 1.1e-8 at
        # delta = 1e-16 and up to 7.7e-10 at delta = 0), so it is read by
        # the verdict, not compared with d_p or 0
        p = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        rng = np.random.default_rng(270 + n + p)
        s = np.array(random_params(rng, n, rmax=0.9).params)
        for delta in [10.0**-k for k in range(2, 17, 2)] + [0.0]:
            s[p] = (1.0 - delta) * 1j**p
            closed = sc.schur_state._closed_form(s)
            m = gauge(closed, random_unitary(rng, n))
            cert = sc.reduce_to_special_lower_hessenberg(m)
            assert_stored_exactly(cert, m)
            assert (sc.band_residual(cert.H) <= 1.0) == (delta > 0.0)
            assert np.argmin(cert.band) == p

    def test_two_decoupled_states(self):
        # a gauged parameter colligation with two uncoupled unimodular
        # states: the Krylov space breaks down after n steps, the restart
        # is the first uncoupled state, which breaks down at once
        rng = np.random.default_rng(280)
        n = 6
        block = np.zeros((n + 3, n + 3), dtype=complex)
        block[: n + 1, : n + 1] = gauged_parameter_matrix(rng, n)
        block[n + 1, n + 1] = np.exp(0.4j)
        block[n + 2, n + 2] = np.exp(-1.1j)
        cert = sc.reduce_to_special_lower_hessenberg(block)
        assert_stored_exactly(cert, block)
        assert cert.band[n] == cert.band[n + 1] == 0.0
        assert cert.band[:n].min() > 0.1
        assert not sc.band_residual(cert.H) <= 1.0
        assert np.array_equal(cert.V[:, n:], np.eye(n + 2)[:, n:])

    @pytest.mark.parametrize("size", [1e-13, 0.0])
    def test_channel_row_within_struct_of_zero(self, size):
        # B within STRUCT of zero: band entry 0 at once and the basis
        # restarts from the first state
        rng = np.random.default_rng(281)
        n = 6
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[0, 0] = np.exp(0.3j)
        m[1:, 1:] = random_unitary(rng, n)
        m[0, 1:] = size * rng.standard_normal(n)
        cert = sc.reduce_to_special_lower_hessenberg(m)
        assert_stored_exactly(cert, m)
        assert cert.band[0] == 0.0
        assert cert.band[1:].min() > 1e-6
        assert not sc.band_residual(cert.H) <= 1.0
        assert np.array_equal(cert.V[:, 0], np.eye(n)[:, 0])

    @pytest.mark.parametrize("size", [1, 2, 9])
    def test_zero_matrix(self, size, monkeypatch):
        # the exact-form shortcut returns it; the Arnoldi loop, forced,
        # restarts at every step from the next unit vector
        zero = np.zeros((size, size), dtype=complex)
        for forced in (False, True):
            if forced:
                monkeypatch.setattr(sc.hessenberg, "_in_lower_form", lambda M: False)
            cert = sc.reduce_to_special_lower_hessenberg(zero)
            assert not cert.H.any()
            assert np.array_equal(cert.V, np.eye(size - 1))

    def test_column_scaled_general_matrices(self):
        # columns scaled by 1e-8 to 1e8 leave band entries on both sides of
        # the cuts; the verdict is that of the dense reflector reference
        zeros = 0
        for seed in range(60):
            rng = np.random.default_rng(290 + seed)
            size = int(rng.integers(3, 13))
            re, im = rng.standard_normal((2, size, size))
            m = re + 1j * im
            m *= 10.0 ** rng.uniform(-8.0, 8.0, size)
            cert = sc.reduce_to_special_lower_hessenberg(m)
            assert_stored_exactly(cert, m)
            H, _ = reference_reduction(m)
            assert (sc.band_residual(cert.H) <= 1.0) == (sc.band_residual(H) <= 1.0)
            zeros += np.count_nonzero(cert.band == 0.0)
        assert zeros > 0


class TestExactLowerForm:
    """An input exactly in lower form is its own form, without the Arnoldi loop."""

    @pytest.mark.parametrize("n", [8, 64])
    def test_closed_form_is_returned_bitwise(self, n, monkeypatch):
        entered = count_full_reductions(monkeypatch)
        closed = sc.closed_form_matrix(random_params(np.random.default_rng(250 + n), n))
        cert = sc.reduce_to_special_lower_hessenberg(closed)
        assert cert.H.tobytes() == closed.tobytes()
        assert np.array_equal(cert.V, np.eye(n))
        upper = sc.reduce_to_special_upper_hessenberg(closed.conj().T)
        assert upper.H.tobytes() == closed.conj().T.tobytes()
        assert np.array_equal(upper.V, np.eye(n))
        assert entered == []

    @pytest.mark.parametrize("n", [8, 64])
    def test_full_reduction_changes_only_roundoff(self, n, monkeypatch):
        # the loop the shortcut skips: its basis is the unit vectors, and
        # the band is recomputed as norms
        monkeypatch.setattr(sc.hessenberg, "_in_lower_form", lambda M: False)
        closed = sc.closed_form_matrix(random_params(np.random.default_rng(250 + n), n))
        cert = sc.reduce_to_special_lower_hessenberg(closed)
        assert np.abs(cert.H - closed).max() <= 1e-15
        assert np.abs(cert.V - np.eye(n)).max() <= 1e-15

    @pytest.mark.parametrize("where", ["above_band", "band_imaginary"])
    def test_tiny_deviation_takes_the_full_reduction(self, where, monkeypatch):
        entered = count_full_reductions(monkeypatch)
        closed = sc.closed_form_matrix(random_params(np.random.default_rng(260), 8))
        if where == "above_band":
            closed[1, 5] = 1e-300
        else:
            closed[2, 3] += 1e-300j
        cert = sc.reduce_to_special_lower_hessenberg(closed)
        assert entered == [8]
        assert_stored_exactly(cert, closed)
        assert np.abs(cert.H - closed).max() <= 1e-15


class TestUpperReduction:
    def test_diagonal_is_fixed(self):
        d = np.diag(np.exp(1j * np.array([0.1, 0.7, -2.0])))
        cert = sc.reduce_to_special_upper_hessenberg(d)
        assert_allclose(cert.H, d)
        assert_allclose(cert.V, np.eye(2))

    def test_adjoint_of_parameter_matrix(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        cert = sc.reduce_to_special_upper_hessenberg(col.matrix.conj().T)
        assert_allclose(cert.H, col.matrix.conj().T)

    def test_random_unitary_structure(self):
        rng = np.random.default_rng(26)
        m = random_unitary(rng, 4)
        cert = sc.reduce_to_special_upper_hessenberg(m)
        assert np.abs(np.tril(cert.H, -2)).max() <= 1e-12
        band = np.diagonal(cert.H, -1)
        assert np.abs(band.imag).max() <= 1e-12
        assert band.real.min() >= -1e-12

    def test_certificate_checked_once(self, monkeypatch):
        # the upper form is the adjoint of one checked lower reduction: one
        # Arnoldi entry, and a residual past CERTIFICATE fails both forms
        m = random_unitary(np.random.default_rng(27), 6)
        entered = count_full_reductions(monkeypatch)
        sc.reduce_to_special_upper_hessenberg(m)
        assert entered == [5]
        loop = sc.hessenberg._arnoldi_lower
        # reconstruction, then unitarity of the gauge
        for missed in range(2):

            def missing(M):
                H, V, *residuals = loop(M)
                residuals[missed] = 1e-10
                return H, V, *residuals

            monkeypatch.setattr(sc.hessenberg, "_arnoldi_lower", missing)
            for reduce in (
                sc.reduce_to_special_lower_hessenberg,
                sc.reduce_to_special_upper_hessenberg,
            ):
                with pytest.raises(sc.InternalInconsistency, match="1.000e-10"):
                    reduce(m)


class TestPredicates:
    def test_parameter_matrix_is_special_and_nonsingular(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        assert _in_lower_form(col.matrix)
        band = np.abs(np.diagonal(col.matrix, 1))
        assert band.min() > sc.tolerances.STRUCT * np.abs(col.matrix).max()

    def test_upper_triangular(self):
        m = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        assert not _in_lower_form(m)  # entries above the band
        bidiagonal = np.eye(3) + np.diag([1.0, 1.0], 1)
        assert _in_lower_form(bidiagonal)

    def test_zero_band_entry(self):
        m = np.array([[0.5, 0.0], [0.5, 0.5]])
        assert _in_lower_form(m)
        assert not np.abs(np.diagonal(m, 1)).min() > sc.tolerances.STRUCT * np.abs(m).max()


class TestHessenbergMinimality:
    def test_delay_minimal(self):
        assert sc.UnitaryColligation(np.array([[0.0, 1.0], [1.0, 0.0]])).minimal

    def test_identity_not_minimal(self):
        assert not sc.UnitaryColligation(np.eye(2)).minimal

    def test_parameter_matrix_minimal(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        assert col.minimal

    def test_agrees_with_rank_tests(self):
        # the Hankel rank of the Markov parameters, independent of the band
        rng = np.random.default_rng(27)
        for _ in range(200):
            size = int(rng.integers(2, 12))
            col = sc.UnitaryColligation(random_unitary(rng, size))
            assert col.minimal == (hankel_rank(col) == col.n)

    def test_agrees_on_constructed_nonminimal(self):
        rng = np.random.default_rng(28)
        for n in (2, 3, 4):
            block = np.zeros((n + 2, n + 2), dtype=complex)
            block[: n + 1, : n + 1] = sc.colligation_from_schur_parameters(
                random_params(rng, n)
            ).matrix
            block[n + 1, n + 1] = np.exp(2j * np.pi * rng.uniform())
            col = sc.UnitaryColligation(block)
            assert not col.minimal
            assert hankel_rank(col) == n


class TestKeptLowerForm:
    """A colligation reduces itself once, and only where the lower form is read."""

    def test_one_reduction_per_colligation(self, monkeypatch):
        # the gauged side is reduced once, by the Arnoldi loop, and its
        # trace shares the kept H; the closed side is never reduced
        rng = np.random.default_rng(340)
        closed = sc.colligation_from_schur_parameters(random_params(rng, 32))
        g = sc.apply_state_gauge(closed, random_unitary(rng, 32))
        reduced = count_reductions(monkeypatch)
        entered = count_full_reductions(monkeypatch)
        traces = [sc.schur_algorithm_state_space(g) for _ in range(2)]
        for first, second in ((g, closed), (closed, g)):
            assert sc.find_equivalence(first, second) is not None
        assert g.minimal and closed.minimal
        assert len(reduced) == 1 and reduced[0] is g.matrix and entered == [32]
        assert "_form" not in vars(closed)
        for trace in traces:
            assert trace.complete and trace.H is g._form.H
        assert not (g._form.H.flags.writeable or g._form.V.flags.writeable)

    def test_a_closed_form_builds_no_certificate(self, monkeypatch, capsys):
        # a matrix exactly in lower form is its own lower matrix with gauge
        # I: the recursion, the equivalence test against every kind of
        # partner, evaluation, simulation and the CLI never reduce it
        rng = np.random.default_rng(344)
        model = sc.model_colligation(random_blaschke(rng, 12))
        seq = sc.schur_algorithm_state_space(model).parameter_sequence()
        col = sc.colligation_from_schur_parameters(seq)
        partners = [
            sc.colligation_from_schur_parameters(seq),
            sc.apply_state_gauge(col, random_unitary(rng, 12)),
            model,
        ]
        points = disc_samples(8, radius=0.9)
        trace = sc.schur_algorithm_state_space(col)
        assert trace.complete and trace.H is col.matrix
        for partner in partners:
            for first, second in ((col, partner), (partner, col)):
                V = sc.find_equivalence(first, second)
                assert sc.intertwining_residual(first, second, V) <= 1e-10
        sc.characteristic_function(col, np.concatenate([points, [2.0]]))
        sc.verify_spectral_identities(col, points, points[::-1])
        sc.readout_residual(col)
        sc.simulate_time_domain(col, np.ones(3 * BLOCK))
        assert "_form" not in vars(col) and "_form" not in vars(partners[0])
        # the CLI builds its own colligation of the document: no reduction
        reduced = count_reductions(monkeypatch)
        text = sc.serialize.dumps_canonical(sc.serialize.colligation_to_json(col))
        for command in ("schur", "verify"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main([command]) == 0
        capsys.readouterr()
        assert reduced == []

    def test_one_peel_per_colligation(self, monkeypatch):
        # a closed form is its own lower matrix: the fold, minimality, the
        # recursion and the readout read one peel of it
        peeled = []
        peel = sc.colligation._peel
        monkeypatch.setattr(
            sc.colligation, "_peel", lambda H: peeled.append(H) or peel(H)
        )
        col = sc.colligation_from_schur_parameters(
            random_params(np.random.default_rng(342), 16)
        )
        sc.characteristic_function(col, 0.5)
        assert col.minimal
        assert sc.schur_algorithm_state_space(col).complete
        assert sc.readout_residual(col) is not None
        assert len(peeled) == 1 and peeled[0] is col.matrix

    def test_band_of_a_closed_form_builds_no_certificate(self):
        # minimality and the CLI's band line read the exact matrix itself
        col = sc.colligation_from_schur_parameters(
            random_params(np.random.default_rng(343), 16)
        )
        cmd = cli._Command(None)
        cli._band_diagnostic(cmd, col)
        assert col.minimal and cmd.diagnostics[0]["residual"] <= 1.0
        assert "_form" not in vars(col)

    @pytest.mark.parametrize("gauged", [False, True], ids=["closed", "gauged"])
    def test_evaluation_reduces_at_most_once(self, gauged, monkeypatch):
        # a closed form is its own lower form and builds no certificate; a
        # gauged one is reduced on its first evaluation and then reads the
        # kept form, inside and outside the disc
        rng = np.random.default_rng(341)
        col = sc.colligation_from_schur_parameters(random_params(rng, 16))
        if gauged:
            col = sc.apply_state_gauge(col, random_unitary(rng, 16))
        reduced = count_reductions(monkeypatch)
        points = disc_samples(8, radius=0.9)
        sc.characteristic_function(col, 0.5)
        sc.characteristic_function(col, np.concatenate([points, [2.0]]))
        sc.verify_spectral_identities(col, points, points[::-1])
        sc.inner_sampling_report(col, 16, 16)
        sc.readout_residual(col)
        sc.simulate_time_domain(col, np.ones(3 * BLOCK))
        sc.markov_parameters(col, 2 * BLOCK)
        assert len(reduced) == gauged and ("_form" in vars(col)) == gauged
        assert col._sections == col._peeled
