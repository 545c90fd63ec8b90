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
from schurcol.sampling import circle_samples, disc_samples
from helpers import (
    cluster,
    random_blaschke,
    random_params,
    reference_expansion,
    transform_fold,
)

NAN = float("nan")
INF = float("inf")


def outcome(fn, arg):
    """The bytes of fn(arg)'s coefficients or parameters, or its error's type and text."""
    try:
        out = fn(arg)
    except (sc.errors.SchurColError, ValueError) as error:
        return type(error), str(error)
    if isinstance(out, sc.RationalInner):
        return out.num.tobytes(), out.den.tobytes()
    return np.array(out.params).tobytes()


def expansion_sets():
    """Zero sets for the expansion: random of degree 1-12, clustered, with 0."""
    rng = np.random.default_rng(1212)
    sets = [random_blaschke(rng, n) for n in range(1, 13) for _ in range(4)]
    sets += [sc.BlaschkeProduct(1.0, cluster(n, 0.9)) for n in (3, 6, 9, 12, 32, 64)]
    sets += [
        sc.BlaschkeProduct(c, zeros)
        for c in (1.0, -1.0j)
        for zeros in ((0.0,), (0.0, 0.0, 0.5), (0.5, 0.0, 0.0))
    ]
    return sets


class TestAdmissibility:
    @pytest.mark.parametrize("x", [NAN, INF, -INF, complex(NAN, 0.0), complex(0.0, INF)])
    def test_non_finite_fails_every_rule(self, x):
        assert not tol.inside_disc(x)
        assert not tol.on_circle(x)
        assert not tol.clear_of_pole(x)

    @pytest.mark.parametrize("kind", [complex, np.complex128, np.array])
    def test_pole_rule_on_scalars_and_arrays(self, kind):
        # a bool for one value, elementwise verdicts for an array
        values = [0.0, tol.POLE, 2.0 * tol.POLE, 1.0, INF, NAN]
        expected = [False, False, True, True, False, False]
        if kind is np.array:
            verdicts = tol.clear_of_pole(np.array(values, dtype=complex))
            assert verdicts.dtype == bool and verdicts.tolist() == expected
        else:
            verdicts = [tol.clear_of_pole(kind(x)) for x in values]
            assert all(type(v) is bool for v in verdicts) and verdicts == expected

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

    def test_matches_the_polymul_reference_bytewise(self):
        for b in expansion_sets():
            if b.degree != 64:
                assert outcome(sc.blaschke_to_rational, b) == outcome(reference_expansion, b)
        # 64 zeros at 0.9: den(0) = 1 is within the trim cut of the largest
        # coefficient (about 6.9e16).  The reference's RationalInner raises
        # its plain ValueError; the expansion reports the lost precision
        # typed, as inverse_schur_transform does
        b = sc.BlaschkeProduct(1.0, cluster(64, 0.9))
        assert outcome(reference_expansion, b) == (
            ValueError,
            "denominator must not vanish at the origin",
        )
        with pytest.raises(
            sc.DegreeDropFailure,
            match=r"^den\(0\) = 1\.000e\+00 is within the trim cut \S+ "
            r"of the degree-64 coefficients$",
        ):
            sc.blaschke_to_rational(b)

    def test_root_outside_the_disc_rejected(self):
        # 2 - z has its root at 2
        with pytest.raises(sc.DiscViolation):
            sc.rational_to_blaschke(sc.RationalInner([2.0, -1.0], [1.0, 0.0]))

    def test_non_unimodular_constant_rejected(self):
        # 2 (0.5 - z) has its root inside but the constant 2
        with pytest.raises(sc.UnitViolation):
            sc.rational_to_blaschke(sc.RationalInner([1.0, -2.0], [1.0, 0.0]))


class TestNormalization:
    @pytest.mark.parametrize(
        "num, den, stored_num, stored_den",
        [
            ([0.5], [1.0, -0.5], [0.5, 0.0], [1.0, -0.5]),
            ([0.0, 0.0, 1.0j], [1.0], [0.0, 0.0, 1.0j], [1.0, 0.0, 0.0]),
            (0.5, 1.0, [0.5], [1.0]),
            (1.0j, [1.0, 0.5], [1.0j, 0.0], [1.0, 0.5]),
            ([0.5, 1.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.5, 1.0], [1.0, 0.5]),
            ([0.5, 1.0, 1e-12], [1.0, 0.5, -1e-11], [0.5, 1.0], [1.0, 0.5]),
            ([0.5, 1.0, 1e-12], [1.0, 0.5, 2e-11], [0.5, 1.0, 1e-12], [1.0, 0.5, 2e-11]),
            ([0.0, 0.0], [2.0, 0.0], [0.0], [2.0]),
        ],
        ids=[
            "short_num",
            "short_den",
            "scalars",
            "scalar_num",
            "exact_trim",
            "trim_within_cut",
            "one_side_above_cut",
            "zero_numerator",
        ],
    )
    def test_stored_coefficients(self, num, den, stored_num, stored_den):
        s = sc.RationalInner(num, den)
        assert s.num.tobytes() == np.array(stored_num, dtype=complex).tobytes()
        assert s.den.tobytes() == np.array(stored_den, dtype=complex).tobytes()
        assert not s.num.flags.writeable and not s.den.flags.writeable

    @pytest.mark.parametrize(
        "num, den, message",
        [
            ([0.5, INF], [1.0], "coefficients must be finite"),
            ([0.0, 0.0], [0.0], "zero rational function is not representable"),
            ([1.0, 0.5], [1e-12, 1.0], "denominator must not vanish at the origin"),
        ],
        ids=["non_finite", "zero_function", "den_at_origin"],
    )
    def test_rejected(self, num, den, message):
        with pytest.raises(ValueError, match=message):
            sc.RationalInner(num, den)


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

    def test_array_of_points(self):
        s = sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, (0.5,)))
        grid = np.array([[0.0, 0.3j], [-0.4, 1.0]])
        values = s.evaluate(grid)
        assert values.shape == (2, 2)
        assert all(values[k] == s.evaluate(grid[k]) for k in np.ndindex(2, 2))
        with pytest.raises(sc.NearPole, match=r"\(2\+0j\)"):
            s.evaluate(np.array([0.1, 2.0, 0.2]))


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

    def test_lost_degree_is_a_degree_drop(self):
        # omega's numerator has no top coefficient, so neither has the
        # coupling, which the trim would cut to degree 1
        omega = sc.RationalInner([1.0, 0.0], [1.0, 0.5])
        with pytest.raises(sc.DegreeDropFailure, match="expected degree 2"):
            sc.inverse_schur_transform(0.5, omega)


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

    def test_matches_the_transform_fold_bitwise(self):
        for b in expansion_sets():
            try:
                s = sc.blaschke_to_rational(b)
            except sc.DegreeDropFailure:
                continue
            assert outcome(sc.schur_parameters, s) == outcome(transform_fold, s)

    @pytest.mark.parametrize(
        "s, error, message",
        [
            (
                sc.RationalInner([0.5, 1.0], [1.0, 0.0]),
                sc.DegreeDropFailure,
                "leading coefficient 5.000e-01 did not cancel",
            ),
            (
                sc.blaschke_to_rational(sc.BlaschkeProduct(1.0, cluster(6, 0.9))),
                sc.DegreeDropFailure,
                "leading coefficient",
            ),
            (
                # the top coefficients pass the trim of s but not of omega
                sc.RationalInner([0.5, 0.0, 1.2e-11], [1.0, 0.0, 1.2e-11]),
                sc.DegreeDropFailure,
                "expected degree 1, trimming produced 0",
            ),
            (
                sc.RationalInner([1.0, 0.5], [1.0, 0.5]),
                sc.Terminal,
                "within 1e-09 of the unit circle",
            ),
            (
                # the second parameter is unimodular
                sc.inverse_schur_transform(
                    0.5, sc.RationalInner([1.0, 0.5], [1.0, 0.25])
                ),
                sc.Terminal,
                "within 1e-09 of the unit circle",
            ),
        ],
        ids=["leading", "cluster", "trim", "terminal", "second_terminal"],
    )
    def test_failures_match_the_transform_fold(self, s, error, message):
        got = outcome(sc.schur_parameters, s)
        assert got == outcome(transform_fold, s)
        assert got[0] is error and message in got[1]

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

    @pytest.mark.parametrize("num,den", [([0.5], [1.0]), ([0.0, 0.5], [1.0, 0.0])])
    def test_non_inner_input_rejected(self, num, den):
        # 0.5 and 0.5 z end in the terminal value 0.5
        with pytest.raises(sc.UnitViolation):
            sc.schur_parameters(sc.RationalInner(num, den))

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
            disc = np.abs(s.evaluate(disc_samples(64)))
            circle = np.abs(s.evaluate(circle_samples(64)))
            assert np.max(disc - 1.0) <= 1e-10
            assert np.max(np.abs(circle - 1.0)) <= 1e-10
