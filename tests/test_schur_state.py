"""The recursion on colligation matrices, cross-checked against coefficients."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol.colligation import _in_lower_form
from helpers import (
    NotNormalized,
    blaschke_values,
    cluster,
    half_step_samples,
    half_step_values,
    mobius_fold,
    random_colligation,
    random_params,
    random_unitary,
    reference_circle_values,
    reference_det_polynomial,
    reference_schur_step,
)

DELAY = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ROOT75 = np.sqrt(0.75)


class TestSchurStep:
    """The gated step of ``helpers.reference_schur_step``, criterion 6's reference."""

    def test_delay(self):
        s0, nxt = reference_schur_step(sc.UnitaryColligation(DELAY))
        assert s0 == 0.0
        assert_allclose(nxt.matrix, [[1.0]])

    def test_moebius(self):
        col = sc.UnitaryColligation(np.array([[0.5, ROOT75], [-ROOT75, 0.5]]))
        s0, nxt = reference_schur_step(col)
        assert_allclose(s0, 0.5)
        assert_allclose(nxt.matrix, [[-1.0]], atol=1e-15)

    def test_nesting_in_the_closed_form(self):
        outer = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        tail = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.3j, 1.0))
        )
        s0, nxt = reference_schur_step(outer)
        assert_allclose(s0, 0.5)
        assert np.abs(nxt.matrix - tail.matrix).max() <= 1e-10

    def test_requires_special_row(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0] = [0.5, 0.0, ROOT75]
        m[1] = [ROOT75, 0.0, -0.5]
        m[2] = [0.0, 1.0, 0.0]
        with pytest.raises(NotNormalized):
            reference_schur_step(sc.UnitaryColligation(m))

    def test_near_unimodular_first_parameter_steps_within_unitarity(self):
        # s_0 = (1 - eps) e^{i theta} makes |C| = sqrt(1 - |s_0|^2) small,
        # so C / |C| would amplify the entries' rounding by 1 / |C|; the
        # step reads its section once, and the next colligation's
        # unitarity gate is its check.  Every entry but the channel row
        # is moved, so the special-row test still passes
        rng = np.random.default_rng(1)
        accepted = 0
        points = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
        for _ in range(200):
            eps = 10 ** rng.uniform(-9, -6)
            s0 = complex((1 - eps) * np.exp(2j * np.pi * rng.uniform()))
            tail = sc.SchurParameterSequence(
                tuple(0.5 * np.exp(2j * np.pi * rng.uniform(size=3))) + (1.0,)
            )
            exact = sc.closed_form_matrix(sc.SchurParameterSequence((s0, *tail.params)))
            size = 10 ** rng.uniform(-13, np.log10(3e-11))
            moved = exact + size * (
                rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
            )
            moved[0, 1:] = exact[0, 1:]
            tail_col = sc.colligation_from_schur_parameters(tail)
            step, nxt = reference_schur_step(sc.UnitaryColligation(exact))
            assert step == sc.colligation._peel(exact)[0]
            assert np.abs(nxt.matrix - tail_col.matrix).max() <= 1e-15
            try:
                col = sc.UnitaryColligation(moved)
            except sc.NotUnitary:
                continue
            accepted += 1
            step, nxt = reference_schur_step(col)
            assert abs(step - s0) <= 1e-10
            assert nxt.unitarity <= sc.tolerances.UNITARY
            for z in points:
                assert abs(
                    sc.characteristic_function(nxt, z)
                    - sc.characteristic_function(tail_col, z)
                ) <= 1e-9
        assert accepted >= 150

    def test_transformed_function(self):
        rng = np.random.default_rng(51)
        col = random_colligation(rng, 4)
        s0, nxt = reference_schur_step(col)
        for _ in range(20):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            s_val = sc.characteristic_function(col, z)
            omega = (s_val - s0) / (z * (1.0 - np.conj(s0) * s_val))
            assert_allclose(
                sc.characteristic_function(nxt, z), omega, atol=1e-9
            )


class TestFullAlgorithm:
    def test_delay_squared(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = m[1, 2] = m[2, 0] = 1.0
        trace = sc.schur_algorithm_state_space(sc.UnitaryColligation(m))
        assert trace.complete
        assert_allclose(trace.parameters, [0.0, 0.0, 1.0], atol=1e-14)

    def test_roundtrip_degree_one(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, -1.0))
        )
        trace = sc.schur_algorithm_state_space(col)
        assert_allclose(trace.parameters, [0.5, -1.0], atol=1e-12)

    def test_model_realization_agrees_with_coefficient_route(self):
        b = sc.BlaschkeProduct(1.0, (0.3, -0.4j))
        col = sc.model_colligation(b)
        trace = sc.schur_algorithm_state_space(col)
        expected = sc.schur_parameters(sc.blaschke_to_rational(b))
        assert_allclose(trace.parameters, expected.params, atol=1e-8)

    def test_partial_trace_on_nonminimal_input(self):
        # the identity (n = 0), then minimal degree-n colligations with an
        # uncoupled unimodular state appended
        rng = np.random.default_rng(28)
        for n in (0, 2, 3, 4):
            block = np.eye(n + 2, dtype=complex)
            if n:
                block[: n + 1, : n + 1] = sc.colligation_from_schur_parameters(
                    random_params(rng, n)
                ).matrix
                block[n + 1, n + 1] = np.exp(2j * np.pi * rng.uniform())
            trace = sc.schur_algorithm_state_space(sc.UnitaryColligation(block))
            assert not trace.complete
            assert f"step {n} of {n + 1}" in trace.message
            assert "not minimal" in trace.message
            # the chain couples the unimodular section past the stop too
            D0 = trace.H[1:, 1:]
            assert len(trace.denominators) == n + 2
            for p, chi in enumerate(trace.denominators):
                reference = reference_det_polynomial(D0[p:, p:])
                assert chi.shape == reference.shape
                assert np.abs(chi - reference).max() <= 1e-12 * np.abs(reference).sum()
            with pytest.raises(sc.NotMinimal):
                trace.parameter_sequence()

    def test_iterates_keep_the_structure(self):
        rng = np.random.default_rng(53)
        trace = sc.schur_algorithm_state_space(
            sc.UnitaryColligation(random_unitary(rng, 6))
        )
        for m in trace.matrices[:-1]:
            assert _in_lower_form(m)
            # no band entry at or below 1e-8 of the largest entry
            assert np.abs(np.diagonal(m, 1)).min() > 1e-8 * np.abs(m).max()

    def test_iterates_match_parameter_tails(self):
        rng = np.random.default_rng(54)
        p = random_params(rng, 5)
        trace = sc.schur_algorithm_state_space(
            sc.colligation_from_schur_parameters(p)
        )
        for k, m in enumerate(trace.matrices):
            tail = sc.colligation_from_schur_parameters(
                sc.SchurParameterSequence(p.params[k:])
            )
            assert np.abs(m - tail.matrix).max() <= 1e-10

    def test_degree_zero_input(self):
        trace = sc.schur_algorithm_state_space(
            sc.UnitaryColligation(np.array([[1.0j]]))
        )
        assert trace.complete
        assert trace.parameters == (1.0j,)


class TestReadout:
    @pytest.mark.parametrize("n", [1, 4, 16, 32])
    def test_equals_the_step_by_step_peel(self, n):
        # backward: the peeled parameters, multiplied back one section at
        # a time, give H again; measured up to 2.5e-15
        rng = np.random.default_rng(60 + n)
        plain = random_colligation(rng, n)
        gauged = sc.apply_state_gauge(plain, random_unitary(rng, n))
        for col in (plain, gauged):
            trace = sc.schur_algorithm_state_space(col)
            rebuilt = sc.product_form_matrix(trace.parameter_sequence())
            assert np.linalg.norm(trace.H - rebuilt, 2) <= 1e-13

    def test_gauged_input_at_kappa_1e6(self):
        # kappa = 9.7e5: the per-iterate unitarity gate rejected this draw
        # (NotUnitary), although the readout recovers it to 2e-10
        rng = np.random.default_rng(78)
        p = random_params(rng, 32)
        col = sc.apply_state_gauge(
            sc.colligation_from_schur_parameters(p), random_unitary(rng, 32)
        )
        trace = sc.schur_algorithm_state_space(col)
        assert trace.complete
        assert 5e5 < trace.kappa < 2e6
        assert np.abs(np.asarray(trace.parameters) - p.params).max() <= 1e-8
        assert trace.backward_error <= sc.tolerances.BACKWARD

    def test_kappa_is_the_product_of_inverse_d(self):
        p = random_params(np.random.default_rng(61), 12)
        trace = sc.schur_algorithm_state_space(sc.colligation_from_schur_parameters(p))
        d = np.sqrt(1.0 - np.abs(np.asarray(p.params[:-1])) ** 2)
        assert_allclose(trace.kappa, 1.0 / np.prod(d), rtol=1e-12)

    @pytest.mark.parametrize(
        "count, radius", [(10, 0.9), (12, 0.97), (20, 0.9), (32, 0.9), (64, 0.9)]
    )
    @pytest.mark.parametrize("turn", [0, 1 / 64, 1 / 32, 1 / 16, 3 / 16, 1 / 2])
    def test_clustered_cascade_completes(self, count, radius, turn):
        # kappa 1e9 to 6e62: the first column of H holds entries of the size
        # of the products of the d_j, so only parameters read off entries of
        # their own size fold back to S.  Turn 1/32 puts the 12 zeros
        # between two 16th roots of unity
        zeros = cluster(count, radius, turn)
        col = sc.model_colligation(sc.BlaschkeProduct(1.0, zeros))
        trace = sc.schur_algorithm_state_space(col)
        assert trace.complete
        t = half_step_samples(32768)
        folded = mobius_fold(trace.parameters, t)
        assert np.abs(folded - blaschke_values(zeros, t)).max() <= 1e-10
        # the section coupling keeps the denominator to roundoff of its
        # coefficients' 1-norm (measured 1.5e-16); the zero product's
        # denominator is prod (1 - z conj(a)) over the zeros a
        den = np.poly(np.conj(zeros))
        assert np.abs(trace.denominators[0] - den).max() <= 1e-14 * np.abs(den).sum()

    @pytest.mark.parametrize("n", [64, 128])
    def test_gauged_draws_fold_to_S_between_the_check_points(self, n):
        # between the check points, which the backward check does not see
        t = half_step_samples(4096)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = random_params(rng, n, rmax=0.9)
            col = sc.apply_state_gauge(
                sc.colligation_from_schur_parameters(p), random_unitary(rng, n)
            )
            trace = sc.schur_algorithm_state_space(col)
            assert trace.complete
            folded = mobius_fold(trace.parameters, t)
            assert np.abs(folded - half_step_values(col, 4096)).max() <= 1e-8

    def test_iterate_heads_are_the_parameters(self):
        rng = np.random.default_rng(65)
        plain = random_colligation(rng, 24)
        gauged = sc.apply_state_gauge(plain, random_unitary(rng, 24))
        for col in (plain, gauged):
            trace = sc.schur_algorithm_state_space(col)
            assert len(trace.matrices) == 25
            for m, s in zip(trace.matrices, trace.parameters):
                assert m[0, 0] == s

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 17, 40, 64])
    def test_check_values_equal_per_point_solves(self, n):
        rng = np.random.default_rng(64 + n)
        col = random_colligation(rng, n, rmax=0.9)
        if n:
            col = sc.apply_state_gauge(col, random_unitary(rng, n))
        count = sc.schur_state._check_count(n)
        assert count >= 4 * (n + 1) and count % 16 == 0
        points = sc.sampling.circle_samples(count)
        exact = [sc.characteristic_function(col, t) for t in points]
        assert_allclose(
            sc.schur_state._circle_values(col, points), exact, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [4, 17, 64, 128, 256])
    def test_check_values_equal_the_full_sequence(self, n):
        rng = np.random.default_rng(128 + n)
        col = sc.apply_state_gauge(
            random_colligation(rng, n, rmax=0.9), random_unitary(rng, n)
        )
        points = sc.sampling.circle_samples(sc.schur_state._check_count(n))
        assert_allclose(
            sc.schur_state._circle_values(col, points),
            reference_circle_values(col, points),
            rtol=0,
            atol=1e-14,
        )

    def test_check_values_equal_the_full_sequence_on_the_cluster(self):
        col = sc.model_colligation(sc.BlaschkeProduct(1.0, cluster(12, 0.97)))
        points = sc.sampling.circle_samples(sc.schur_state._check_count(12))
        assert_allclose(
            sc.schur_state._circle_values(col, points),
            reference_circle_values(col, points),
            rtol=0,
            atol=1e-14,
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_one_block_check_values_are_the_full_sequence(self, n):
        # at n <= 3 the check has 16 points, one block and no row product
        rng = np.random.default_rng(132 + n)
        col = random_colligation(rng, n, rmax=0.9)
        if n:
            col = sc.apply_state_gauge(col, random_unitary(rng, n))
        points = sc.sampling.circle_samples(sc.schur_state._check_count(n))
        assert len(points) == 16
        values = sc.schur_state._circle_values(col, points)
        assert values.tobytes() == reference_circle_values(col, points).tobytes()

    def test_no_colligation_per_iterate(self, monkeypatch):
        calls = []
        original = sc.colligation.require_unitary

        def counted(matrix, what):
            calls.append(what)
            return original(matrix, what)

        monkeypatch.setattr(sc.colligation, "require_unitary", counted)
        col = random_colligation(np.random.default_rng(62), 16)
        calls.clear()
        trace = sc.schur_algorithm_state_space(col)
        assert trace.complete
        assert calls == []

    def test_iterates_are_rebuilt_once_and_read_only(self):
        trace = sc.schur_algorithm_state_space(
            random_colligation(np.random.default_rng(63), 5)
        )
        first = trace.matrices
        assert trace.matrices is first
        assert len(first) == 6
        assert not any(m.flags.writeable for m in first)


class TestMatrixBuilders:
    def test_delay_matrix(self):
        closed = sc.closed_form_matrix(sc.SchurParameterSequence((0.0, 1.0)))
        assert_allclose(closed, DELAY)

    def test_degree_one_entries(self):
        closed = sc.closed_form_matrix(sc.SchurParameterSequence((0.5, 1.0)))
        assert_allclose(closed, [[0.5, ROOT75], [ROOT75, -0.5]])

    def test_second_row_entries(self):
        s = (0.3 - 0.1j, 0.2j, -0.5 + 0.4j, 1.0j)
        d = np.sqrt(1.0 - np.abs(np.asarray(s)) ** 2)
        closed = sc.closed_form_matrix(sc.SchurParameterSequence(s))
        assert_allclose(closed[2, 0], s[2] * d[1] * d[0])
        assert_allclose(closed[2, 1], -s[2] * d[1] * np.conj(s[0]))
        assert_allclose(closed[2, 2], -s[2] * np.conj(s[1]))
        assert_allclose(closed[2, 3], d[2])

    def test_every_entry_follows_the_formula(self):
        # the docstring's expression entry by entry, each product taken
        # afresh; only the association of the factors differs
        p = random_params(np.random.default_rng(54), 12)
        s = np.asarray(p.params)
        d = np.sqrt(1.0 - np.abs(s[:-1]) ** 2)
        formula = np.zeros((13, 13), dtype=complex)
        for j in range(13):
            formula[j, 0] = s[j] * np.prod(d[:j])
            for k in range(1, j + 1):
                formula[j, k] = -s[j] * np.prod(d[k:j]) * np.conj(s[k - 1])
            if j < 12:
                formula[j, j + 1] = d[j]
        assert_allclose(sc.closed_form_matrix(p), formula, rtol=1e-15, atol=0)

    def test_product_form_agrees(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            p = random_params(rng, int(rng.integers(1, 11)))
            closed = sc.closed_form_matrix(p)
            product = sc.product_form_matrix(p)
            assert np.abs(closed - product).max() <= 1e-12

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_product_form_agrees_at_scale(self, n):
        p = random_params(np.random.default_rng(56 + n), n)
        closed = sc.closed_form_matrix(p)
        assert np.abs(closed - sc.product_form_matrix(p)).max() <= 1e-12

    @pytest.mark.parametrize("n", [40, 100])
    def test_product_form_agrees_near_the_circle(self, n):
        # |s_j| = 1 - 2e-9, the closest to the circle that DISC admits, so
        # d_j = 6.3e-5 and d_0 ... d_{j-1} underflows past j = 73: the
        # products must be built as runs, never as quotients of cumprods
        rng = np.random.default_rng(57)
        phases = np.exp(2j * np.pi * rng.uniform(size=n + 1))
        p = sc.SchurParameterSequence(tuple((1.0 - 2e-9) * phases[:-1]) + (phases[-1],))
        closed = sc.closed_form_matrix(p)
        assert np.isfinite(closed).all()
        assert np.abs(closed - sc.product_form_matrix(p)).max() <= 1e-12
        assert sc.unitarity_residual(closed) <= 1e-12

    def test_constructor_returns_verified_colligation(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        assert col.minimal
        assert _in_lower_form(col.matrix)


class TestDenominatorChain:
    def test_computed_once_on_first_access(self, monkeypatch):
        # one section coupling per parameter before the terminal, n in all
        calls = []
        original = sc.schur_state._couple_section

        def counted(s, num, den):
            calls.append(s)
            return original(s, num, den)

        monkeypatch.setattr(sc.schur_state, "_couple_section", counted)
        rng = np.random.default_rng(58)
        trace = sc.schur_algorithm_state_space(random_colligation(rng, 4))
        assert len(calls) == 0
        first = trace.denominators
        assert len(calls) == 4
        assert trace.denominators is first
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [1, 16, 33])
    def test_complete_trace_couples_its_own_parameters(self, n, monkeypatch):
        # a complete trace's parameters are the peel of H bit for bit, so
        # the chain peels nothing again; the partial path peels H and must
        # give the same bytes
        rng = np.random.default_rng(59 + n)
        col = sc.apply_state_gauge(
            random_colligation(rng, n), random_unitary(rng, n)
        )
        trace = sc.schur_algorithm_state_space(col)
        assert trace.complete
        peeled = []
        original = sc.colligation._peel_steps

        def counted(H):
            peeled.append(len(H) - 1)
            return original(H)

        monkeypatch.setattr(sc.colligation, "_peel_steps", counted)
        chain = trace.denominators
        assert peeled == []
        repeeled = dataclasses.replace(trace, complete=False).denominators
        assert peeled == [n]
        assert len(chain) == len(repeeled) == n + 1
        for mine, theirs in zip(chain, repeeled):
            assert mine.tobytes() == theirs.tobytes()

    def test_delay(self):
        trace = sc.schur_algorithm_state_space(sc.UnitaryColligation(DELAY))
        assert_allclose(trace.denominators[0], [1.0, 0.0], atol=1e-15)

    def test_degree_one_by_hand(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, -1.0))
        )
        trace = sc.schur_algorithm_state_space(col)
        # D = -s1 conj(s0) = 0.5, so det(I - z D) = 1 - 0.5 z
        assert_allclose(trace.denominators[0], [1.0, -0.5], atol=1e-14)

    def test_matches_function_denominator(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            p = random_params(rng, 3)
            s = sc.from_schur_parameters(p)
            trace = sc.schur_algorithm_state_space(
                sc.colligation_from_schur_parameters(p)
            )
            assert_allclose(trace.denominators[0], s.den / s.den[0], atol=1e-9)

    def test_every_level_matches_the_tail(self):
        rng = np.random.default_rng(57)
        p = random_params(rng, 4)
        trace = sc.schur_algorithm_state_space(
            sc.colligation_from_schur_parameters(p)
        )
        for k, chi in enumerate(trace.denominators):
            tail = sc.from_schur_parameters(
                sc.SchurParameterSequence(p.params[k:])
            )
            assert_allclose(chi, tail.den / tail.den[0], atol=1e-9)
            assert chi[0] == 1.0

    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("gauged", [False, True])
    def test_recurrence_matches_the_lu_chain(self, n, gauged):
        # the reference interpolates at roots of unity, so its DFT's
        # conditioning sets the bound: about 1e-13 of the coefficients'
        # 1-norm at n = 64
        rng = np.random.default_rng(70 + n)
        col = random_colligation(rng, n)
        if gauged:
            col = sc.apply_state_gauge(col, random_unitary(rng, n))
        trace = sc.schur_algorithm_state_space(col)
        D0 = trace.H[1:, 1:]
        assert len(trace.denominators) == n + 1
        for p, chi in enumerate(trace.denominators):
            reference = reference_det_polynomial(D0[p:, p:])
            assert chi.shape == reference.shape
            assert chi[0] == 1.0
            assert np.abs(chi - reference).max() <= 1e-12 * np.abs(reference).sum()
