"""Feedback transform, elementary sections and coupled colligations."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol import redheffer as rd
from schurcol.sampling import circle_samples, disc_samples
from helpers import (
    band_length,
    count_resolvent_solves,
    count_unitarity_residuals,
    gauge_family_member,
    random_colligation,
    random_params,
    random_unitary,
    reference_redheffer_product,
    reference_resolvent,
)

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
            section.partitioned.matrix,
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
        assert sc.unitarity_residual(section.partitioned.matrix) <= 1e-14

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

    @pytest.mark.parametrize("h", [0, 4])
    def test_characteristic_matrix_against_per_point_solves(self, h):
        rng = np.random.default_rng(42 + h)
        pc = sc.PartitionedColligation(random_unitary(rng, 2 + h), 1, 1, h)
        A, B, C = pc.matrix[:2, :2], pc.matrix[:2, 2:], pc.matrix[2:, :2]
        D = pc.matrix[2:, 2:]
        for z in (0.0, 0.3 - 0.4j, 0.9j, -0.2 + 1.1j):
            columns = [reference_resolvent(D, [z], C[:, j])[0] for j in range(2)]
            expected = A + z * (B @ np.column_stack(columns))
            value = sc.characteristic_matrix(pc, z)
            assert value.shape == (2, 2)
            assert np.abs(value - expected).max() <= 1e-14
            if h == 0:
                assert np.array_equal(value, A)

    @pytest.mark.parametrize("h", [0, 4])
    def test_characteristic_matrix_of_an_array_is_one_batch(self, h, monkeypatch):
        rng = np.random.default_rng(44 + h)
        pc = sc.PartitionedColligation(random_unitary(rng, 2 + h), 1, 1, h)
        points = np.array([0.0, 0.3 - 0.4j, 0.9j, -0.2 + 1.1j])
        singles = np.array([sc.characteristic_matrix(pc, z) for z in points])
        solved = count_resolvent_solves(monkeypatch)
        values = sc.characteristic_matrix(pc, points)
        assert solved == [4]
        assert values.shape == (4, 2, 2)
        assert np.abs(values - singles).max() <= 1e-15

    def test_section_keeps_its_partitioned_colligation(self, monkeypatch):
        section = sc.elementary_schur_section(0.4 - 0.3j)
        taken = count_unitarity_residuals(monkeypatch)
        pc = section.partitioned
        assert taken == []
        assert pc.unitarity == sc.unitarity_residual(pc.matrix) <= 1e-14

    def test_characteristic_matrix_at_state_pole(self):
        rng = np.random.default_rng(41)
        pc = sc.PartitionedColligation(random_unitary(rng, 4), 1, 1, 2)
        for lam in np.linalg.eigvals(pc.matrix[2:, 2:]):
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

    @pytest.mark.parametrize("h2", [0, 1, 2, 5])
    @pytest.mark.parametrize("h1", [0, 1, 2, 5])
    def test_bytes_equal_the_block_reference(self, h1, h2):
        rng = np.random.default_rng(50 + 10 * h1 + h2)
        for _ in range(20):
            pc = sc.PartitionedColligation(random_unitary(rng, 2 + h1), 1, 1, h1)
            col = sc.UnitaryColligation(random_unitary(rng, 1 + h2))
            coupled = sc.redheffer_product(pc, col)
            expected = reference_redheffer_product(pc, col)
            assert coupled.matrix.tobytes() == expected.matrix.tobytes()
            assert coupled.unitarity == expected.unitarity

    def test_section_cascades_equal_the_block_reference(self):
        # random, zero and real parameters: exact zeros and signed zeros in
        # the sections reach every block of the coupled matrix
        rng = np.random.default_rng(51)
        for degree in range(1, 13):
            body = np.asarray(random_params(rng, degree).params[:-1])
            for params in (body, np.zeros(degree, dtype=complex), body.real + 0j):
                terminal = complex(np.exp(2j * np.pi * rng.uniform()))
                rebuilt = sc.UnitaryColligation(np.array([[terminal]]))
                for s in params[::-1]:
                    section = sc.elementary_schur_section(s).partitioned
                    expected = reference_redheffer_product(section, rebuilt)
                    rebuilt = sc.redheffer_product(section, rebuilt)
                    assert rebuilt.matrix.tobytes() == expected.matrix.tobytes()

    @pytest.mark.parametrize("h2", [0, 2])
    def test_singular_feedback_rejected(self, h2):
        # a22 = 1 and alpha = 1: the loop through channel 2 has gain one
        pc = sc.PartitionedColligation(np.eye(3)[[2, 1, 0]], 1, 1, 1)
        col = sc.UnitaryColligation(np.eye(1 + h2))
        with pytest.raises(sc.FeedbackSingular, match="a22 alpha"):
            sc.redheffer_product(pc, col)
        with pytest.raises(sc.FeedbackSingular, match="a22 alpha"):
            reference_redheffer_product(pc, col)

    def test_degree_additivity_for_sections(self):
        rng = np.random.default_rng(36)
        col = random_colligation(rng, 3)
        section = sc.elementary_schur_section(0.4 + 0.2j)
        coupled = sc.redheffer_product(section.partitioned, col)
        assert band_length(coupled) == 1 + col.n


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

    def test_matches_the_block_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            s0 = complex(0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            col = random_colligation(rng, int(rng.integers(1, 4)))
            direct = sc.inverse_schur_colligation(s0, col)
            section = sc.elementary_schur_section(s0)
            blocks = reference_redheffer_product(section.partitioned, col)
            assert np.abs(direct.matrix - blocks.matrix).max() <= 1e-14
            # the same matrix as a product: u_omega below a fixed first
            # coordinate, times the elementary rotation in coordinates (0, 1)
            embed = np.eye(col.n + 2, dtype=complex)
            embed[1:, 1:] = col.matrix
            rotation = np.eye(col.n + 2, dtype=complex)
            rotation[:2, :2] = section.partitioned.matrix[:2, [0, 2]]
            assert np.abs(direct.matrix - embed @ rotation).max() <= 1e-14

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
    """The residual gauge freedom of the inverse-Schur realization."""

    @staticmethod
    def residuals(s0, col, epsilon, v):
        """Member, channel-row and function residuals of the gauge (epsilon, v)."""
        base = sc.inverse_schur_colligation(s0, col)
        gauge = np.zeros((base.n, base.n), dtype=complex)
        gauge[0, 0] = epsilon
        gauge[1:, 1:] = v
        gauged = sc.apply_state_gauge(base, gauge)
        member = gauge_family_member(s0, col, epsilon, v)
        row = np.zeros(base.n, dtype=complex)
        row[0] = epsilon * np.sqrt(1.0 - abs(s0) ** 2)
        points = disc_samples(20, radius=0.9)
        return (
            np.abs(member - gauged.matrix).max(),
            np.abs(gauged.B - row).max(),
            np.abs(
                sc.characteristic_function(gauged, points)
                - sc.characteristic_function(base, points)
            ).max(),
        )

    def test_trivial_member_is_base(self):
        rng = np.random.default_rng(40)
        col = random_colligation(rng, 2)
        matrix, row, function = self.residuals(0.4, col, 1.0, np.eye(2))
        assert matrix <= 1e-14
        assert row <= 1e-12
        assert function <= 1e-11

    def test_phase_moves_channel_entry(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.2, 1.0))
        )
        matrix, row, function = self.residuals(0.5, col, 1.0j, np.eye(1))
        assert matrix <= 1e-12
        assert row <= 1e-12
        assert function <= 1e-11

    def test_random_gauges_leave_function_alone(self):
        rng = np.random.default_rng(41)
        col = random_colligation(rng, 3)
        eps = complex(np.exp(2j * np.pi * rng.uniform()))
        v = random_unitary(rng, 3)
        matrix, row, function = self.residuals(0.3 + 0.1j, col, eps, v)
        assert matrix <= 1e-12
        assert row <= 1e-12
        assert function <= 1e-11


def gauged_state_block(rng, n):
    """D and C, as one column, of a minimal colligation of degree n under a gauge."""
    col = sc.apply_state_gauge(random_colligation(rng, n), random_unitary(rng, n))
    return np.array(col.D), np.array(col.matrix[1:, :1])


class TestBatchedResolvent:
    """The stacked solve of ``characteristic_matrix`` against one LU solve per point."""

    POINTS = np.concatenate(
        [disc_samples(40, radius=0.95), circle_samples(16), [0.0, 1e-8]]
    )

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_agrees_with_per_point_solves(self, n):
        D, C = gauged_state_block(np.random.default_rng(3000 + n), n)
        x = rd._resolvent_apply(D, self.POINTS, C)
        ref = reference_resolvent(D, self.POINTS, C[:, 0])
        assert x.shape == (len(self.POINTS), n, 1)
        assert np.abs(x[:, :, 0] - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_singular_point_alone_is_named(self):
        # I - z D is exactly singular at z = -2 for D = [-0.5]
        with pytest.raises(sc.NearPole, match="singular") as info:
            rd._resolvent_apply(np.array([[-0.5 + 0j]]), -2.0, np.ones((1, 1), complex))
        assert repr(complex(-2.0)) in str(info.value)

    def test_chunks_do_not_change_the_result(self, monkeypatch):
        D, C = gauged_state_block(np.random.default_rng(3001), 8)
        whole = rd._resolvent_apply(D, self.POINTS, C)
        # three points per chunk, the last one partial
        monkeypatch.setattr(rd, "STACK", 3 * 8 * 8)
        assert np.array_equal(rd._resolvent_apply(D, self.POINTS, C), whole)

    def test_right_hand_side_has_the_axes_of_the_stack(self, monkeypatch):
        # numpy 1.x solves a right-hand side with one axis fewer than the
        # stack as a stack of vectors, numpy 2 as one shared matrix; with
        # the stack's axes both read it as one matrix per point
        solve = np.linalg.solve
        axes = []

        def recording(a, b):
            axes.append((np.ndim(a), np.ndim(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        D, C = gauged_state_block(np.random.default_rng(3004), 8)
        for z in (self.POINTS, 1.5):
            for rhs in (C, np.eye(8, 2, dtype=complex)):
                rd._resolvent_apply(D, z, rhs)
        assert axes == [(3, 3)] * 4

    def test_memory_is_bounded_by_the_chunk(self):
        # unchunked, 200 points at n = 256 would stack 200 MiB of matrices
        col = random_colligation(np.random.default_rng(3003), 256, rmax=0.9)
        D, C = np.array(col.D), np.array(col.matrix[1:, :1])
        points = disc_samples(200, radius=0.9)
        tracemalloc.start()
        try:
            rd._resolvent_apply(D, points, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
