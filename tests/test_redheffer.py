"""Feedback transform, elementary sections and coupled colligations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from helpers import random_colligation, random_unitary

ROOT75 = np.sqrt(0.75)


def section_char(s0, z):
    """2x2 coefficient matrix [[s0, z d], [d, -z conj(s0)]]."""
    d = np.sqrt(1.0 - abs(s0) ** 2)
    return np.array([[s0, z * d], [d, -z * np.conj(s0)]])


class TestRedhefferTransform:
    def test_nan_load_is_singular(self):
        with pytest.raises(sc.FeedbackSingular):
            sc.redheffer_transform(0.5, ROOT75, ROOT75, -0.5, float("nan"))

    def test_zero_load_returns_through_path(self):
        assert sc.redheffer_transform(0.3, 0.5, 0.7, 0.2, 0.0) == 0.3

    def test_zero_parameter_section_is_delay(self):
        z, omega = 0.37 + 0.11j, -0.6 + 0.2j
        m = section_char(0.0, z)
        out = sc.redheffer_transform(m[0, 0], m[0, 1], m[1, 0], m[1, 1], omega)
        assert_allclose(out, z * omega)

    def test_section_at_origin_returns_parameter(self):
        m = section_char(0.5, 0.0)
        out = sc.redheffer_transform(m[0, 0], m[0, 1], m[1, 0], m[1, 1], -1.0)
        assert_allclose(out, 0.5)

    def test_singular_feedback_rejected(self):
        with pytest.raises(sc.FeedbackSingular):
            sc.redheffer_transform(0.0, 1.0, 1.0, 1.0, 1.0)


class TestElementarySection:
    def test_zero_parameter_is_permutation(self):
        section = sc.elementary_schur_section(0.0)
        assert_allclose(
            section.matrix,
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        )
        m = sc.characteristic_matrix(section.partitioned, 0.3)
        assert_allclose(m, [[0.0, 0.3], [1.0, 0.0]])

    def test_half_parameter_blocks(self):
        section = sc.elementary_schur_section(0.5)
        m = sc.characteristic_matrix(section.partitioned, 0.0)
        assert_allclose(m, [[0.5, 0.0], [ROOT75, 0.0]])

    def test_unitary_to_machine_precision(self):
        section = sc.elementary_schur_section(0.6j)
        assert sc.unitarity_residual(section.matrix) <= 1e-14

    def test_characteristic_matrix_at_samples(self):
        rng = np.random.default_rng(31)
        s0 = 0.4 - 0.3j
        section = sc.elementary_schur_section(s0)
        for _ in range(10):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert_allclose(
                sc.characteristic_matrix(section.partitioned, z),
                section_char(s0, z),
                atol=1e-14,
            )

    def test_characteristic_matrix_at_state_pole(self):
        rng = np.random.default_rng(41)
        pc = sc.PartitionedColligation(random_unitary(rng, 4), 1, 1, 2)
        for lam in np.linalg.eigvals(pc.d):
            with pytest.raises(sc.NearPole):
                sc.characteristic_matrix(pc, 1.0 / lam)

    def test_rejects_unimodular_parameter(self):
        with pytest.raises(sc.DiscViolation):
            sc.elementary_schur_section(1.0)

    def test_rejects_nan_parameter(self):
        constant = sc.UnitaryColligation(np.array([[-1.0]]))
        with pytest.raises(sc.DiscViolation):
            sc.elementary_schur_section(float("nan"))
        with pytest.raises(sc.DiscViolation):
            sc.inverse_schur_colligation(float("nan"), constant)
        with pytest.raises(sc.UnitViolation):
            sc.verify_gauge_family(0.5, constant, float("nan"), np.eye(0))


class TestRedhefferProduct:
    def test_section_against_unimodular_constant(self):
        section = sc.elementary_schur_section(0.5)
        alpha = sc.UnitaryColligation(np.array([[-1.0]]))
        coupled = sc.redheffer_product(section.partitioned, alpha)
        assert_allclose(
            coupled.matrix, [[0.5, ROOT75], [-ROOT75, 0.5]], atol=1e-15
        )

    def test_delay_coupled_with_delay_is_squared(self):
        section = sc.elementary_schur_section(0.0)
        delay = sc.UnitaryColligation(np.array([[0.0, 1.0], [1.0, 0.0]]))
        coupled = sc.redheffer_product(section.partitioned, delay)
        assert_allclose(
            coupled.matrix,
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            atol=1e-15,
        )
        trace = sc.schur_algorithm_state_space(coupled)
        assert_allclose(trace.parameters, [0.0, 0.0, 1.0], atol=1e-12)

    def test_products_stay_unitary(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            pc = sc.PartitionedColligation(random_unitary(rng, 5), 1, 1, 3)
            col = random_colligation(rng, int(rng.integers(1, 4)))
            coupled = sc.redheffer_product(pc, col)
            assert sc.unitarity_residual(coupled.matrix) <= 1e-10
            assert coupled.n == 3 + col.n

    def test_coupled_characteristic_function(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            pc = sc.PartitionedColligation(random_unitary(rng, 4), 1, 1, 2)
            col = random_colligation(rng, 2)
            coupled = sc.redheffer_product(pc, col)
            for _ in range(10):
                z = 0.95 * np.sqrt(rng.uniform()) * np.exp(
                    2j * np.pi * rng.uniform()
                )
                blocks = sc.characteristic_matrix(pc, z)
                omega = sc.characteristic_function(col, z)
                expected = sc.redheffer_transform(
                    blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1], omega
                )
                assert_allclose(
                    sc.characteristic_function(coupled, z), expected, atol=1e-10
                )

    def test_energy_relation(self):
        rng = np.random.default_rng(34)
        pc = sc.PartitionedColligation(random_unitary(rng, 5), 1, 1, 3)
        col = random_colligation(rng, 3)
        coupled = sc.redheffer_product(pc, col)
        for _ in range(20):
            x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            y = coupled.matrix @ x
            assert abs(np.linalg.norm(y) ** 2 - np.linalg.norm(x) ** 2) <= 1e-10

    def test_coupled_inner_on_circle(self):
        rng = np.random.default_rng(35)
        pc = sc.PartitionedColligation(random_unitary(rng, 4), 1, 1, 2)
        col = random_colligation(rng, 2)
        coupled = sc.redheffer_product(pc, col)
        _, circle_dev = sc.inner_sampling_report(coupled, circle_count=32)
        assert circle_dev <= 1e-9

    def test_degree_additivity_for_sections(self):
        rng = np.random.default_rng(36)
        col = random_colligation(rng, 3)
        section = sc.elementary_schur_section(0.4 + 0.2j)
        coupled = sc.redheffer_product(section.partitioned, col)
        report = sc.minimality_report(coupled)
        assert report.rank_controllability == 1 + col.n


class TestInverseSchurColligation:
    def test_delay_realization(self):
        out = sc.inverse_schur_colligation(
            0.0, sc.UnitaryColligation(np.array([[1.0]]))
        )
        assert_allclose(out.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_moebius_realization(self):
        out = sc.inverse_schur_colligation(
            0.5, sc.UnitaryColligation(np.array([[-1.0]]))
        )
        assert_allclose(out.matrix, [[0.5, ROOT75], [-ROOT75, 0.5]], atol=1e-15)
        assert_allclose(sc.characteristic_function(out, 0.2), (0.5 - 0.2) / 0.9)

    def test_matches_redheffer_product_route(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            s0 = complex(0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            col = random_colligation(rng, int(rng.integers(1, 4)))
            direct = sc.inverse_schur_colligation(s0, col)
            section = sc.elementary_schur_section(s0)
            coupled = sc.redheffer_product(section.partitioned, col)
            assert np.abs(direct.matrix - coupled.matrix).max() <= 1e-14

    def test_iterated_matches_closed_form(self):
        terminal = sc.UnitaryColligation(np.array([[1.0]]))
        inner = sc.inverse_schur_colligation(0.3j, terminal)
        outer = sc.inverse_schur_colligation(0.5, inner)
        closed = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        assert np.abs(outer.matrix - closed.matrix).max() <= 1e-12

    def test_channel_row_special_form(self):
        rng = np.random.default_rng(38)
        col = random_colligation(rng, 3)
        out = sc.inverse_schur_colligation(0.3 - 0.2j, col)
        row = out.matrix[0, 1:]
        assert_allclose(row[0], np.sqrt(1 - abs(0.3 - 0.2j) ** 2))
        assert np.abs(row[1:]).max() == 0.0

    def test_realizes_inverse_transform_of_the_function(self):
        rng = np.random.default_rng(39)
        col = random_colligation(rng, 2)
        s0 = 0.25 + 0.4j
        out = sc.inverse_schur_colligation(s0, col)
        for _ in range(10):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            omega = sc.characteristic_function(col, z)
            expected = (s0 + z * omega) / (1.0 + z * np.conj(s0) * omega)
            assert_allclose(
                sc.characteristic_function(out, z), expected, atol=1e-12
            )


class TestGaugeFamily:
    def test_trivial_member_is_base(self):
        rng = np.random.default_rng(40)
        col = random_colligation(rng, 2)
        report = sc.verify_gauge_family(0.4, col, 1.0, np.eye(2))
        assert report.passed
        assert report.max_matrix_residual <= 1e-14

    def test_phase_moves_channel_entry(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.2, 1.0))
        )
        report = sc.verify_gauge_family(0.5, col, 1.0j, np.eye(1))
        assert report.max_matrix_residual <= 1e-12
        assert report.channel_row_residual <= 1e-12

    def test_random_gauges_leave_function_alone(self):
        rng = np.random.default_rng(41)
        col = random_colligation(rng, 3)
        eps = complex(np.exp(2j * np.pi * rng.uniform()))
        v = random_unitary(rng, 3)
        report = sc.verify_gauge_family(0.3 + 0.1j, col, eps, v)
        assert report.max_matrix_residual <= 1e-12
        assert report.max_characteristic_residual <= 1e-11

    def test_dimension_guard(self):
        rng = np.random.default_rng(42)
        col = random_colligation(rng, 2)
        with pytest.raises(sc.DimensionMismatch):
            sc.verify_gauge_family(0.1, col, 1.0, np.eye(3))
