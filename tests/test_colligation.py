"""Characteristic functions, minimality ranks, gauges and simulation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol import colligation as co
from helpers import random_colligation, random_params, random_unitary, taylor_coefficients

DELAY = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# twelve zeros on a ring of radius 0.015 around 0.97: det(I - 0.97 D) is
# about 1.8e-15, yet the solve amplifies C by only about 15
CLUSTER = tuple(0.97 + 0.015 * np.exp(2j * np.pi * k / 12) for k in range(12))


def zero_product(zeros, z):
    return np.prod([(w - z) / (1.0 - z * np.conj(w)) for w in zeros])


class TestConstruction:
    def test_rejects_non_unitary(self):
        with pytest.raises(sc.NotUnitary):
            sc.UnitaryColligation(np.array([[0.0, 1.0], [1.0, 1e-3]]))

    def test_rejects_nan(self):
        with pytest.raises(sc.NotUnitary):
            sc.UnitaryColligation(np.array([[np.nan]]))

    @pytest.mark.parametrize(
        "gate",
        [
            lambda m: sc.PartitionedColligation(m, 1, 1, 1),
            sc.hessenberg_minimality,
            lambda m: sc.apply_state_gauge(sc.UnitaryColligation(np.eye(4)), m),
            lambda m: sc.verify_gauge_family(0.5, sc.UnitaryColligation(np.eye(4)), 1.0, m),
        ],
        ids=["partitioned", "hessenberg_minimality", "state_gauge", "gauge_family"],
    )
    def test_other_unitarity_gates_reject_nan(self, gate):
        with pytest.raises(sc.NotUnitary):
            gate(np.full((3, 3), np.nan))

    def test_require_unitary_names_the_matrix(self):
        co.require_unitary(DELAY, "delay")
        with pytest.raises(sc.NotUnitary, match="^inner gauge is not unitary"):
            co.require_unitary(2.0 * DELAY, "inner gauge")

    def test_block_views(self):
        col = sc.UnitaryColligation(DELAY)
        assert col.n == 1
        assert col.A == 0.0
        assert_allclose(col.B, [1.0])
        assert_allclose(col.C, [1.0])
        assert_allclose(col.D, [[0.0]])


class TestCharacteristicFunction:
    def test_delay(self):
        col = sc.UnitaryColligation(DELAY)
        assert_allclose(sc.characteristic_function(col, 0.7), 0.7)

    def test_value_at_zero_is_corner(self):
        rng = np.random.default_rng(3)
        col = sc.UnitaryColligation(random_unitary(rng, 5))
        assert sc.characteristic_function(col, 0.0) == col.A

    def test_moebius_at_one(self):
        r = np.sqrt(0.75)
        col = sc.UnitaryColligation(np.array([[0.5, r], [r, -0.5]]))
        # S(z) = (0.5 + z) / (1 + 0.5 z)
        assert_allclose(sc.characteristic_function(col, 1.0), 1.0, atol=1e-14)

    def test_degree_zero(self):
        col = sc.UnitaryColligation(np.array([[1.0j]]))
        assert sc.characteristic_function(col, 0.5) == 1.0j

    def test_near_pole_outside_the_disc(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 1.0))
        )
        # D = [-0.5], so I - z D is singular at z = -2; near it the solve
        # amplifies by 2e13
        for z in (-2.0, -2.0 + 1e-13):
            with pytest.raises(sc.NearPole):
                sc.characteristic_function(col, z)

    def test_clustered_cascade_inside_the_disc(self):
        col = sc.model_colligation(sc.BlaschkeProduct(1.0, CLUSTER))
        value = sc.characteristic_function(col, 0.97)
        assert abs(value - zero_product(CLUSTER, 0.97)) <= 1e-12


class TestMinimality:
    def test_delay_is_minimal(self):
        report = sc.minimality_report(sc.UnitaryColligation(DELAY))
        assert (
            report.rank_controllability
            == report.rank_observability
            == report.rank_simplicity
            == 1
        )
        assert sc.is_minimal(sc.UnitaryColligation(DELAY))

    def test_decoupled_state_has_rank_zero(self):
        rng = np.random.default_rng(4)
        v = random_unitary(rng, 3)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0j
        m[1:, 1:] = v
        report = sc.minimality_report(sc.UnitaryColligation(m))
        assert report.rank_controllability == 0
        assert not sc.is_minimal(sc.UnitaryColligation(m))

    def test_parameter_matrix_is_minimal(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        report = sc.minimality_report(col)
        assert report.rank_controllability == 2
        assert report.rank_observability == 2
        assert report.rank_simplicity == 2

    def test_identity_two_by_two_not_minimal(self):
        assert not sc.is_minimal(sc.UnitaryColligation(np.eye(2)))

    def test_disagreeing_ranks_give_a_short_message(self):
        # the Krylov matrices of this minimal n = 64 colligation lose rank
        # numerically: 46, 46 and 50
        col = sc.colligation_from_schur_parameters(
            random_params(np.random.default_rng(0), 64)
        )
        with pytest.raises(sc.InternalInconsistency) as info:
            sc.is_minimal(col)
        message = str(info.value)
        assert len(message) < 200
        assert "(46, 46, 50)" in message


class TestStateGauge:
    def test_identity_gauge(self):
        col = sc.UnitaryColligation(DELAY)
        out = sc.apply_state_gauge(col, np.eye(1))
        assert_allclose(out.matrix, col.matrix)

    def test_scalar_phase_moves_channels_only(self):
        rng = np.random.default_rng(6)
        col = random_colligation(rng, 3)
        phase = np.exp(0.7j)
        out = sc.apply_state_gauge(col, phase * np.eye(3))
        assert_allclose(out.B, phase * col.B)
        assert_allclose(out.C, np.conj(phase) * col.C)
        assert_allclose(out.D, col.D)

    def test_characteristic_function_invariant(self):
        rng = np.random.default_rng(8)
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, -1.0))
        )
        v = random_unitary(rng, 1)
        gauged = sc.apply_state_gauge(col, v)
        for z in 0.9 * np.exp(2j * np.pi * np.arange(20) / 20):
            assert_allclose(
                sc.characteristic_function(gauged, z),
                sc.characteristic_function(col, z),
                atol=1e-12,
            )

    def test_rejects_non_unitary_gauge(self):
        with pytest.raises(sc.NotUnitary):
            sc.apply_state_gauge(sc.UnitaryColligation(DELAY), np.array([[2.0]]))


class TestFindEquivalence:
    def test_recovers_gauged_copy(self):
        rng = np.random.default_rng(9)
        col = random_colligation(rng, 4)
        gauged = sc.apply_state_gauge(col, random_unitary(rng, 4))
        v = sc.find_equivalence(col, gauged)
        assert v is not None
        assert sc.intertwining_residual(col, gauged, v) <= 1e-9

    def test_identity_pair(self):
        col = sc.UnitaryColligation(DELAY)
        v = sc.find_equivalence(col, col)
        assert_allclose(v, np.eye(1), atol=1e-12)
        assert sc.intertwining_residual(col, col, v) <= 1e-14

    def test_different_functions_give_none(self):
        col1 = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.2j, 1.0))
        )
        col2 = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.1, 0.2j, 1.0))
        )
        assert sc.find_equivalence(col1, col2) is None

    def test_requires_simplicity(self):
        with pytest.raises(sc.NotSimple):
            sc.find_equivalence(
                sc.UnitaryColligation(np.eye(2)), sc.UnitaryColligation(DELAY)
            )


class TestSimulation:
    def test_pure_delay_shifts_impulse(self):
        col = sc.UnitaryColligation(DELAY)
        outputs, states = sc.simulate_time_domain(col, [1.0, 0.0, 0.0])
        assert_allclose(outputs, [0.0, 1.0, 0.0])
        assert states.shape == (4, 1)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(12)
        col = random_colligation(rng, 3)
        outputs, _ = sc.simulate_time_domain(col, np.zeros(5))
        assert_allclose(outputs, 0.0)

    def test_impulse_response_is_taylor_series(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, -1.0))
        )
        impulse = np.zeros(4)
        impulse[0] = 1.0
        outputs, _ = sc.simulate_time_domain(col, impulse)
        # series of (0.5 - z)/(1 - 0.5 z): 0.5, -0.75, -0.375, -0.1875
        assert_allclose(outputs, [0.5, -0.75, -0.375, -0.1875], atol=1e-14)

    def test_energy_balance_long_run(self):
        rng = np.random.default_rng(13)
        col = random_colligation(rng, 4)
        inputs = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        outputs, states = sc.simulate_time_domain(col, inputs)
        balance = (
            np.sum(np.abs(outputs) ** 2)
            + np.sum(np.abs(states[-1]) ** 2)
            - np.sum(np.abs(inputs) ** 2)
        )
        assert abs(balance) <= 1e-10


class TestMarkovParameters:
    def test_delay(self):
        assert_allclose(
            sc.markov_parameters(sc.UnitaryColligation(DELAY), 3), [0.0, 1.0, 0.0]
        )

    def test_first_entry_is_corner(self):
        rng = np.random.default_rng(14)
        col = sc.UnitaryColligation(random_unitary(rng, 4))
        assert sc.markov_parameters(col, 1)[0] == col.A

    def test_matches_series_oracle(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, -1.0))
        )
        assert_allclose(
            sc.markov_parameters(col, 3), [0.5, -0.75, -0.375], atol=1e-14
        )

    def test_hankel_rank_equals_state_dimension_when_minimal(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 5):
            col = random_colligation(rng, n)
            coeffs = sc.markov_parameters(col, 2 * n + 1)
            hankel = np.array(
                [[coeffs[i + j + 1] for j in range(n)] for i in range(n)]
            )
            s = np.linalg.svd(hankel, compute_uv=False)
            rank = int(np.sum(s > max(n + 1, 8) * 1e-10 * s[0]))
            assert rank == n == sc.minimality_report(col).rank_controllability


class TestSpectralIdentities:
    def test_delay_norm_identity_by_hand(self):
        col = sc.UnitaryColligation(DELAY)
        report = sc.verify_spectral_identities(col, [0.5], [0.5])
        # 1 - |z|^2 = 0.75 and (1 - |z|^2) |(I - z 0)^{-1} 1|^2 = 0.75
        assert report.residual_norm <= 1e-15

    def test_coincident_origin_reduces_to_row_unitarity(self):
        rng = np.random.default_rng(16)
        col = sc.UnitaryColligation(random_unitary(rng, 4))
        report = sc.verify_spectral_identities(col, [0.0], [0.0])
        assert report.max_residual <= 1e-13

    def test_degree_zero_reduces_to_unimodularity(self):
        report = sc.verify_spectral_identities(
            sc.UnitaryColligation(np.array([[1.0j]])), [0.3], [0.2]
        )
        assert report.max_residual == 0.0

    def test_random_minimal_degree_four(self):
        rng = np.random.default_rng(18)
        col = random_colligation(rng, 4)
        zs = 0.9 * np.sqrt(rng.uniform(size=20)) * np.exp(
            2j * np.pi * rng.uniform(size=20)
        )
        zetas = 0.9 * np.sqrt(rng.uniform(size=20)) * np.exp(
            2j * np.pi * rng.uniform(size=20)
        )
        report = sc.verify_spectral_identities(col, zs, zetas)
        assert report.max_residual <= 1e-10


class TestInnerBehaviour:
    def test_contractive_inside_unimodular_on_boundary(self):
        rng = np.random.default_rng(19)
        col = random_colligation(rng, 5)
        disc_excess, circle_dev = sc.inner_sampling_report(
            col, disc_count=100, circle_count=64
        )
        assert disc_excess <= 1e-10
        assert circle_dev <= 1e-9

    def test_clustered_cascade_unimodular_on_boundary(self):
        col = sc.model_colligation(sc.BlaschkeProduct(1.0, CLUSTER))
        _, circle_dev = sc.inner_sampling_report(col)
        assert circle_dev <= 1e-9

    def test_taylor_oracle_agreement(self):
        rng = np.random.default_rng(20)
        col = random_colligation(rng, 4)
        direct = sc.markov_parameters(col, 8)
        oracle = taylor_coefficients(
            lambda z: sc.characteristic_function(col, z), 8
        )
        assert_allclose(direct, oracle, atol=1e-12)
