"""Function-level Schur recursion against hand-derived values.

The frozen expected values below were obtained by symbolic hand
calculation: expanding the degree-1 products, substituting into the
transform pair, and inverting one step at a time.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol import tolerances as tol
from helpers import random_blaschke, random_params

NAN = float("nan")
INF = float("inf")


class TestAdmissibility:
    @pytest.mark.parametrize("x", [NAN, INF, -INF, complex(NAN, 0.0), complex(0.0, INF)])
    def test_non_finite_fails_every_rule(self, x):
        assert not tol.inside_disc(x)
        assert not tol.on_circle(x)
        assert not tol.clear_of_pole(x)

    def test_finite_margins(self):
        assert tol.inside_disc(1.0 - 2e-9) and not tol.inside_disc(1.0 - 0.5e-9)
        assert tol.on_circle(1j * (1.0 + 0.5e-9)) and not tol.on_circle(1.0 + 2e-9)
        assert tol.clear_of_pole(-2e-12) and not tol.clear_of_pole(1e-12)

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: sc.SchurParameterSequence((NAN, 1.0)), sc.DiscViolation),
            (lambda: sc.SchurParameterSequence((0.5, NAN)), sc.UnitViolation),
            (lambda: sc.BlaschkeProduct(NAN, ()), sc.UnitViolation),
            (lambda: sc.BlaschkeProduct(1.0, (0.5, NAN)), sc.DiscViolation),
            (lambda: sc.RationalInner([NAN, 1.0], [1.0, 0.0]), ValueError),
            (lambda: sc.RationalInner([0.5, 1.0], [NAN, 0.5]), ValueError),
            (lambda: sc.RationalInner([0.5, 1.0], [1.0, NAN]), ValueError),
            (
                lambda: sc.inverse_schur_transform(NAN, sc.RationalInner([1.0], [1.0])),
                sc.DiscViolation,
            ),
            (
                lambda: sc.RationalInner([0.5, 1.0], [1.0, 0.5]).evaluate(NAN),
                sc.NearPole,
            ),
        ],
        ids=[
            "parameter",
            "terminal",
            "constant",
            "zero",
            "numerator",
            "denominator_head",
            "denominator_tail",
            "inverse_transform",
            "evaluate",
        ],
    )
    def test_nan_is_rejected(self, build, error):
        with pytest.raises(error):
            build()


class TestBlaschkeToRational:
    def test_single_zero_at_origin(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(-1.0, (0.0,)))
        assert_allclose(s.num, [0.0, 1.0])
        assert_allclose(s.den, [1.0, 0.0])
        assert s.degree == 1

    def test_empty_product_is_constant(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, ()))
        assert s.degree == 0
        assert s.evaluate(0.37) == 1.0

    def test_hand_expansion_degree_one(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, (0.5,)))
        assert_allclose(s.num, [0.5, -1.0])
        assert_allclose(s.den, [1.0, -0.5])

    def test_zero_on_circle_rejected(self):
        with pytest.raises(sc.DiscViolation):
            sc.BlaschkeProduct(1.0, (1.0,))

    def test_vanishes_at_own_zeros(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            b = random_blaschke(rng, 4)
            s = sc.blaschke_to_rational(b)
            for z in b.zeros:
                assert abs(s.evaluate(z)) <= 1e-12

    def test_roundtrip_through_zero_recovery(self):
        b = sc.BlaschkeProduct(np.exp(0.3j), (0.2, -0.5j, 0.1 + 0.6j))
        back = sc.rational_to_blaschke(sc.blaschke_to_rational(b))
        assert_allclose(back.c, b.c, atol=1e-12)
        assert_allclose(
            sorted(back.zeros, key=lambda z: (z.real, z.imag)),
            sorted(b.zeros, key=lambda z: (z.real, z.imag)),
            atol=1e-12,
        )


class TestEvaluate:
    def test_identity_function(self):
        s = sc.RationalInner([0.0, 1.0], [1.0])
        assert s.evaluate(0.3 + 0.4j) == 0.3 + 0.4j

    def test_value_at_origin(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, (0.5,)))
        assert s.evaluate(0.0) == 0.5

    def test_unimodular_on_circle(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, (0.5,)))
        assert_allclose(s.evaluate(1.0), -1.0)

    def test_near_pole_raises(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, (0.5,)))
        with pytest.raises(sc.NearPole):
            s.evaluate(2.0)  # pole of (0.5 - z)/(1 - 0.5 z)


class TestSchurTransform:
    def test_identity_function(self):
        s0, omega = sc.schur_transform(sc.RationalInner([0.0, 1.0], [1.0]))
        assert s0 == 0.0
        assert omega.degree == 0
        assert omega.evaluate(0.0) == 1.0

    def test_degree_one_blaschke(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, (0.5,)))
        s0, omega = sc.schur_transform(s)
        assert_allclose(s0, 0.5)
        assert omega.degree == 0
        assert_allclose(omega.evaluate(0.2), -1.0)

    def test_moebius_with_complex_tail(self):
        # s(z) = (s0 + s1 z) / (1 + conj(s0) s1 z) with s0 = 0.5, s1 = i
        s = sc.RationalInner([0.5, 1.0j], [1.0, 0.5j])
        s0, omega = sc.schur_transform(s)
        assert_allclose(s0, 0.5)
        assert_allclose(omega.evaluate(0.1), 1.0j)

    def test_constant_is_terminal(self):
        with pytest.raises(sc.Terminal):
            sc.schur_transform(sc.RationalInner([1.0], [1.0]))

    def test_unimodular_center_is_terminal(self):
        s = sc.RationalInner([1.0, 0.5], [1.0, 0.5])
        with pytest.raises(sc.Terminal):
            sc.schur_transform(s)


class TestInverseSchurTransform:
    def test_delay_from_unit_constant(self):
        one = sc.RationalInner([1.0], [1.0])
        s = sc.inverse_schur_transform(0.0, one)
        assert_allclose(s.num, [0.0, 1.0])
        assert_allclose(s.den, [1.0, 0.0])

    def test_symbolic_expansion(self):
        minus_one = sc.RationalInner([-1.0], [1.0])
        s = sc.inverse_schur_transform(0.5, minus_one)
        assert_allclose(s.num, [0.5, -1.0])
        assert_allclose(s.den, [1.0, -0.5])

    def test_composition_with_zero_parameter(self):
        z = sc.RationalInner([0.0, 1.0], [1.0])
        s = sc.inverse_schur_transform(0.0, z)
        assert_allclose(s.num, [0.0, 0.0, 1.0])
        assert_allclose(s.den, [1.0, 0.0, 0.0])

    def test_rejects_non_contractive_parameter(self):
        with pytest.raises(sc.DiscViolation):
            sc.inverse_schur_transform(1.0, sc.RationalInner([1.0], [1.0]))


class TestParameterExtraction:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            ([0.0, 1.0], [1.0], [0.0, 1.0]),
            ([0.0, 0.0, 1.0], [1.0], [0.0, 0.0, 1.0]),
            ([0.5, -1.0], [1.0, -0.5], [0.5, -1.0]),
        ],
    )
    def test_known_sequences(self, num, den, expected):
        p = sc.schur_parameters(sc.RationalInner(num, den))
        assert_allclose(p.params, expected, atol=1e-14)

    def test_degree_zero_returns_terminal_only(self):
        p = sc.schur_parameters(sc.RationalInner([1.0j], [1.0]))
        assert p.params == (1.0j,)

    @pytest.mark.parametrize(
        "params,num,den",
        [
            ((0.0, 1.0), [0.0, 1.0], [1.0, 0.0]),
            ((0.5, -1.0), [0.5, -1.0], [1.0, -0.5]),
            ((0.0, 0.0, 1.0), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
        ],
    )
    def test_known_reconstructions(self, params, num, den):
        s = sc.from_schur_parameters(sc.SchurParameterSequence(params))
        assert_allclose(s.num, num, atol=1e-14)
        assert_allclose(s.den, den, atol=1e-14)

    def test_parameter_conditions_enforced(self):
        with pytest.raises(sc.DiscViolation):
            sc.SchurParameterSequence((1.2, 1.0))
        with pytest.raises(sc.UnitViolation):
            sc.SchurParameterSequence((0.2, 0.5))

    def test_terminal_within_unit_margin_is_put_on_the_circle(self):
        # a terminal off the circle by 1.3e-10 passes the UNIT check; left
        # as it is, the colligation built from it is NotUnitary (2.6e-10)
        terminal = np.exp(0.7j) * (1.0 + 1.3e-10)
        p = sc.SchurParameterSequence((0.3, 0.2j, -0.5, terminal))
        assert p.params[:3] == (0.3, 0.2j, -0.5)
        assert abs(p.params[-1] - np.exp(0.7j)) <= 1e-15
        col = sc.colligation_from_schur_parameters(p)
        assert sc.unitarity_residual(col.matrix) <= 1e-15


class TestInnerSampling:
    def test_delay_passes(self):
        report = sc.is_inner_sampled(sc.RationalInner([0.0, 1.0], [1.0]))
        assert report.passed
        assert report.max_disc_excess == 0.0
        assert report.max_circle_deviation == 0.0

    def test_contractive_constant_fails_circle(self):
        report = sc.is_inner_sampled(sc.RationalInner([0.5], [1.0]))
        assert not report.passed
        assert_allclose(report.max_circle_deviation, 0.5)

    def test_random_blaschke_passes_tightly(self):
        rng = np.random.default_rng(11)
        b = random_blaschke(rng, 4)
        report = sc.is_inner_sampled(sc.blaschke_to_rational(b), tolerance=1e-12)
        assert report.passed


class TestProperties:
    def test_parameter_roundtrip(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            p = random_params(rng, n)
            back = sc.schur_parameters(sc.from_schur_parameters(p))
            assert_allclose(back.params, p.params, atol=1e-8)

    def test_degree_drops_by_one_each_step(self):
        rng = np.random.default_rng(5)
        s = sc.blaschke_to_rational(random_blaschke(rng, 6))
        while s.degree > 0:
            before = s.degree
            _, s = sc.schur_transform(s)
            assert s.degree == before - 1

    def test_inverse_transform_preserves_innerness(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            omega = sc.blaschke_to_rational(random_blaschke(rng, 3))
            s0 = complex(0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            s = sc.inverse_schur_transform(s0, omega)
            assert sc.is_inner_sampled(s, tolerance=1e-10).passed
