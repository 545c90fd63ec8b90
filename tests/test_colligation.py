"""Characteristic functions, minimality, gauges and simulation."""

import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol import colligation as co
from schurcol import serialize as js
from schurcol.sampling import circle_samples, disc_samples
from helpers import (
    band_length,
    count_linear_solves,
    count_reductions,
    hankel_rank,
    random_colligation,
    random_params,
    random_unitary,
    reference_fold,
    reference_resolvent,
    reference_simulation,
    taylor_coefficients,
)

DELAY = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
L = co.BLOCK

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
            lambda m: sc.apply_state_gauge(sc.UnitaryColligation(np.eye(4)), m),
        ],
        ids=["partitioned", "state_gauge"],
    )
    def test_other_unitarity_gates_reject_nan(self, gate):
        with pytest.raises(sc.NotUnitary):
            gate(np.full((3, 3), np.nan))

    def test_require_unitary_names_the_matrix(self):
        co.require_unitary(DELAY, "delay")
        with pytest.raises(sc.NotUnitary, match="^inner gauge is not unitary"):
            co.require_unitary(2.0 * DELAY, "inner gauge")

    def test_residual_is_kept(self):
        # the residual the gate took, on the colligation or on its failure
        col = random_colligation(np.random.default_rng(31), 9)
        assert col.unitarity == co.unitarity_residual(col.matrix)
        assert co.require_unitary(col.matrix, "colligation") == col.unitarity
        noisy = col.matrix + 1e-6
        with pytest.raises(sc.NotUnitary) as failure:
            sc.UnitaryColligation(noisy)
        assert failure.value.residual == co.unitarity_residual(noisy)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
    def test_one_gram_product_bounds_both_sides(self, n):
        # U*U - I and UU* - I share their singular values, so the max-norm
        # residual of the first bounds the 2-norm of both within n + 1
        rng = np.random.default_rng(60 + n)
        eye = np.eye(n + 1)
        for scale in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            for _ in range(4):
                noise = rng.standard_normal((n + 1, n + 1, 2)) @ [1.0, 1.0j]
                u = random_unitary(rng, n + 1) + scale * noise
                bound = (n + 1) * co.unitarity_residual(u)
                assert np.linalg.norm(u.conj().T @ u - eye, 2) <= bound
                assert np.linalg.norm(u @ u.conj().T - eye, 2) <= bound

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_gates_cut_at_unitary(self, factor, accepted):
        # Q diag(sigma) with one sigma^2 = 1 + factor * UNITARY: the residual
        # is that excess to rounding, at every gate
        rng = np.random.default_rng(61)
        sigma = np.ones(9)
        sigma[4] = np.sqrt(1.0 + factor * sc.tolerances.UNITARY)
        u = random_unitary(rng, 9) * sigma
        residual = co.unitarity_residual(u)
        assert residual == pytest.approx(factor * sc.tolerances.UNITARY, rel=1e-4)
        gates = (
            lambda m: co.require_unitary(m, "matrix"),
            sc.UnitaryColligation,
            lambda m: sc.PartitionedColligation(m, 1, 1, 7),
        )
        for gate in gates:
            if accepted:
                gate(u)
            else:
                with pytest.raises(sc.NotUnitary) as failure:
                    gate(u)
                assert failure.value.residual == residual

    @pytest.mark.parametrize(
        "build",
        [sc.UnitaryColligation, lambda m: sc.PartitionedColligation(m, 1, 1, 0)],
        ids=["colligation", "partitioned"],
    )
    def test_public_constructors_copy(self, build):
        m = DELAY.copy()
        built = build(m)
        assert m.flags.writeable and not np.shares_memory(m, built.matrix)
        assert not built.matrix.flags.writeable
        m[0, 0] = 1.0
        assert built.matrix[0, 0] == 0.0

    def test_builders_adopt_their_arrays(self):
        # the private path takes the array it is given and gates it the same
        adopt = co.UnitaryColligation._adopt
        m = DELAY.copy()
        built = adopt(m)
        assert built.matrix is m and not m.flags.writeable
        assert built.unitarity == co.unitarity_residual(DELAY)
        with pytest.raises(sc.NotUnitary):
            adopt(2.0 * DELAY)
        with pytest.raises(sc.DimensionMismatch):
            adopt(np.eye(3, dtype=complex)[:2])

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
        # S(0) is the peeled s_0 = A / |(A, B)|, A to roundoff (a gap of
        # 3.5e-16 or less over 200 such draws, 0 on this one)
        rng = np.random.default_rng(3)
        col = sc.UnitaryColligation(random_unitary(rng, 5))
        assert abs(sc.characteristic_function(col, 0.0) - col.A) <= 1e-15

    def test_moebius_at_one(self):
        r = np.sqrt(0.75)
        col = sc.UnitaryColligation(np.array([[0.5, r], [r, -0.5]]))
        # S(z) = (0.5 + z) / (1 + 0.5 z)
        assert_allclose(sc.characteristic_function(col, 1.0), 1.0, atol=1e-14)

    def test_degree_zero(self):
        col = sc.UnitaryColligation(np.array([[1.0j]]))
        assert sc.characteristic_function(col, 0.5) == 1.0j
        # S = A bitwise also outside the disc, where 1 / conj(A) is not
        col = sc.UnitaryColligation(np.array([[np.exp(0.3j)]]))
        values = sc.characteristic_function(col, np.array([0.5, 2.0, -3.0j]))
        assert (values == col.A).all() and 1.0 / col.A.conjugate() != col.A

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


class TestOneRoute:
    """S at every point folded from the kept sections, against one LU solve per point."""

    POINTS = np.concatenate(
        [disc_samples(40, radius=0.95), circle_samples(16), [0.0, 1e-8]]
    )

    @pytest.mark.parametrize("gauged", [False, True], ids=["closed", "gauged"])
    @pytest.mark.parametrize("n", [1, 8, 64, 256])
    def test_agrees_with_per_point_solves(self, n, gauged):
        # inside the disc, on the circle and at 1.01 <= |z| <= 4, where S is
        # reflected from the fold at 1/conj(z); 7.4e-15 relative or less here
        rng = np.random.default_rng(3000 + n)
        col = random_colligation(rng, n, rmax=0.9)
        if gauged:
            col = sc.apply_state_gauge(col, random_unitary(rng, n))
        radii = 1.01 + 2.99 * rng.uniform(size=40)
        outside = radii * np.exp(2j * np.pi * rng.uniform(size=40))
        points = np.concatenate([self.POINTS, outside])
        ref = col.A + points * (reference_resolvent(col.D, points, col.C) @ col.B)
        values = sc.characteristic_function(col, points)
        assert (np.abs(values - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0)).all()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_one_point_gets_its_bits_in_an_array(self, n):
        col = gauged_colligation(np.random.default_rng(3100 + n), n)
        # inside, on and outside the circle
        points = np.concatenate(
            [self.POINTS, 1.2 + 0.5 * disc_samples(8), [2.0, -1.5j]]
        )
        values = sc.characteristic_function(col, points)
        singles = np.array([sc.characteristic_function(col, z) for z in points])
        assert values.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_point_outside_the_disc_gets_its_bits_in_an_array(self, n):
        col = random_colligation(np.random.default_rng(3200 + n), n)
        points = np.concatenate([1.5 * circle_samples(8), [2.0, -1.5j, 1.0 + 1e-15]])
        values = sc.characteristic_function(col, points)
        singles = np.array([sc.characteristic_function(col, z) for z in points])
        assert values.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_direct_sums_fold_their_first_block(self, n):
        # a Haar-gauged direct sum of a closed form of degree p and a Haar
        # block: S is the first block's.  The reduction stores a zero band
        # entry at p, which cuts the fold there, or a tiny one, which does
        # not; either way the fold matches LU (within 3.2e-14 on probes)
        p = n // 2
        for seed in range(3):
            rng = np.random.default_rng([3300 + n, seed])
            m = np.zeros((n + 1, n + 1), dtype=complex)
            m[: p + 1, : p + 1] = sc.closed_form_matrix(random_params(rng, p, rmax=0.9))
            m[p + 1 :, p + 1 :] = random_unitary(rng, n - p)
            col = sc.apply_state_gauge(sc.UnitaryColligation(m), random_unitary(rng, n))
            first = sc.UnitaryColligation(m[: p + 1, : p + 1])
            radii = 1.01 + 2.99 * rng.uniform(size=20)
            outside = radii * np.exp(2j * np.pi * rng.uniform(size=20))
            points = np.concatenate([self.POINTS, outside])
            ref = first.A + points * (
                reference_resolvent(first.D, points, first.C) @ first.B
            )
            values = sc.characteristic_function(col, points)
            assert (np.abs(values - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)).all()

    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_near_unimodular_parameter_agrees_or_is_a_pole(self, n, where):
        # the inputs of test_hessenberg.py::TestBreakdownRule::
        # test_near_unimodular_parameter: s_p = (1 - delta) i^p under a
        # gauge, a nonzero band down to delta = 1e-16 and a split at 0.
        # Each point agrees with LU (within 7e-14 on probes) or is a pole,
        # never a silent NaN
        p = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        rng = np.random.default_rng(270 + n + p)
        s = np.array(random_params(rng, n, rmax=0.9).params)
        points = np.concatenate(
            [self.POINTS, 1.05 * circle_samples(8), 3.0 * circle_samples(4)]
        )
        for delta in [10.0**-k for k in range(2, 17, 2)] + [0.0]:
            s[p] = (1.0 - delta) * 1j**p
            closed = sc.UnitaryColligation(
                sc.schur_state._closed_form(s)
            )
            col = sc.apply_state_gauge(closed, random_unitary(rng, n))
            ref = col.A + points * (reference_resolvent(col.D, points, col.C) @ col.B)
            for z, expected in zip(points, ref):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        value = sc.characteristic_function(col, z)
                    except sc.NearPole:
                        continue
                assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_zero_denominator_is_a_pole(self):
        # s_0 = 1 / |(1, 1e-9)| rounds to exactly 1 on a nonzero band, so
        # the fold's denominator 1 + conj(s_0) z s_1 is exactly 0 at z = -1,
        # the pole of S; Python's complex division would raise there
        col = sc.UnitaryColligation(np.array([[1.0, 1e-9], [1e-9, -1.0]]))
        assert col._sections == (1.0, 1.0)
        for z in (-1.0, np.array([0.5, -1.0])):
            with pytest.raises(sc.NearPole, match=re.escape(repr(-1 + 0j))):
                sc.characteristic_function(col, z)

    @pytest.mark.parametrize(
        "call",
        [
            lambda closed, gauged: sc.characteristic_function(closed, np.inf),
            lambda closed, gauged: sc.characteristic_function(gauged, [0.5, np.inf]),
            lambda closed, gauged: sc.characteristic_matrix(
                sc.elementary_schur_section(0.3).partitioned, -np.inf
            ),
            lambda closed, gauged: sc.verify_spectral_identities(
                gauged, [np.inf], [0.1]
            ),
            lambda closed, gauged: sc.characteristic_function(
                gauged, complex(0, np.nan)
            ),
        ],
        ids=["closed", "gauged_array", "section_matrix", "identities", "nan"],
    )
    def test_non_finite_point_is_named_before_any_product(self, call):
        # z = inf in any product would warn (inf * 0) before the pole rule
        # could name the point
        rng = np.random.default_rng(3005)
        closed = random_colligation(rng, 4)
        gauged = sc.apply_state_gauge(closed, random_unitary(rng, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sc.NearPole, match="not a finite point"):
                call(closed, gauged)

    @pytest.mark.parametrize("pole", [-2.0, -2.0 + 1e-13])
    def test_near_pole_names_the_point(self, pole):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 1.0))
        )
        # S = (0.5 + z) / (1 + 0.5 z) has its pole at z = -2, where
        # S(1/conj(z)) = 0, and |S(1/conj(z))| is 3.3e-14 beside it
        with pytest.raises(sc.NearPole) as info:
            sc.characteristic_function(col, np.array([0.1, 0.5j, pole, -0.3]))
        assert repr(complex(pole)) in str(info.value)

    def test_scalar_and_array_shapes(self):
        rng = np.random.default_rng(3002)
        col = random_colligation(rng, 4)
        assert type(sc.characteristic_function(col, 0.3)) is complex
        assert type(sc.characteristic_function(col, np.complex128(0.3j))) is complex
        grid = disc_samples(6).reshape(2, 3)
        values = sc.characteristic_function(col, grid)
        assert values.shape == (2, 3)
        assert values[1, 2] == sc.characteristic_function(col, grid[1, 2])
        assert sc.characteristic_function(col, np.empty(0)).shape == (0,)
        constant = sc.UnitaryColligation(np.array([[1.0j]]))
        assert sc.characteristic_function(constant, 0.3) == 1.0j
        assert np.array_equal(
            sc.characteristic_function(constant, grid), np.full((2, 3), 1.0j)
        )


def json_round_trip(col):
    return js.colligation_from_json(
        json.loads(js.dumps_canonical(js.colligation_to_json(col)))
    )


class TestSectionFold:
    """S folded from the peeled Schur sections of a matrix in exact lower form."""

    POINTS = np.concatenate(
        [disc_samples(40, radius=0.99), circle_samples(32), [0.0, 1.0, -1.0j]]
    )

    @pytest.mark.parametrize("rmax", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1, 8, 64, 128])
    def test_closed_forms_run_no_resolvent_solve(self, n, rmax, monkeypatch):
        col = random_colligation(np.random.default_rng(5000 + n), n, rmax=rmax)
        ref = col.A + self.POINTS * (
            reference_resolvent(col.D, self.POINTS, col.C) @ col.B
        )
        solved = count_linear_solves(monkeypatch)
        for form in (col, json_round_trip(col)):
            values = sc.characteristic_function(form, self.POINTS)
            assert np.abs(values - ref).max() <= 1e-11
            singles = [sc.characteristic_function(form, z) for z in self.POINTS[::5]]
            assert np.abs(singles - ref[::5]).max() <= 1e-11
        assert solved == []

    def test_scalar_and_array_bits_agree(self, monkeypatch):
        rng = np.random.default_rng(5001)
        col = random_colligation(rng, 64)
        # roots of unity and exp(2 pi i u) as the benchmark draws them: the
        # moduli of all of them must read at most 1 to stay on the fold
        points = np.concatenate(
            [
                disc_samples(64, radius=0.99),
                circle_samples(64),
                np.exp(2j * np.pi * rng.uniform(size=256)),
            ]
        )
        solved = count_linear_solves(monkeypatch)
        values = sc.characteristic_function(col, points)
        singles = np.array([sc.characteristic_function(col, z) for z in points])
        assert values.tobytes() == singles.tobytes()
        assert solved == []

    def test_other_inputs_take_no_solve(self, monkeypatch):
        rng = np.random.default_rng(5002)
        closed = random_colligation(rng, 8)
        gauged = sc.apply_state_gauge(closed, random_unitary(rng, 8))
        # exact lower form with a zero band entry between two closed forms;
        # its function is the first block's
        first = sc.closed_form_matrix(random_params(rng, 4))
        split = np.zeros((8, 8), dtype=complex)
        split[:5, :5] = first
        split[5:, 5:] = sc.closed_form_matrix(random_params(rng, 2))
        split = sc.UnitaryColligation(split)
        assert split.D[3, 4] == 0.0
        # a minimal closed form with |s_2| = 1 - 1e-10, outside the DISC margin
        params = list(random_params(rng, 8).params)
        params[2] = (1.0 - 1e-10) * 1j
        near = sc.UnitaryColligation(
            sc.schur_state._closed_form(params)
        )
        assert sc.band_residual(near.matrix) <= 1.0
        points = disc_samples(10, radius=0.9)
        expected = sc.characteristic_function(closed, points)
        first_values = sc.characteristic_function(sc.UnitaryColligation(first), points)
        near_ref = near.A + points * (
            reference_resolvent(near.D, points, near.C) @ near.B
        )

        solved = count_linear_solves(monkeypatch)
        gauged_values = sc.characteristic_function(gauged, points)
        assert np.abs(gauged_values - expected).max() <= 1e-12
        # the fold is cut after the zero band entry, at the first block's terminal
        assert split._sections == split._peeled[:5]
        split_values = sc.characteristic_function(split, points)
        assert np.abs(split_values - first_values).max() <= 1e-12
        near_values = sc.characteristic_function(near, points)
        assert near._sections == near._peeled
        assert np.abs(near_values - near_ref).max() <= 1e-12
        # outside the closed disc, alone and among points inside it
        outside = np.array([1.5, -1.2j, 1.0 + 1e-15])
        sc.characteristic_function(closed, outside)
        mixed = sc.characteristic_function(closed, np.array([0.5, 1.5, -0.5j]))
        assert solved == []
        assert mixed[0] == sc.characteristic_function(closed, 0.5)
        assert mixed[1] == sc.characteristic_function(closed, 1.5)

    @pytest.mark.parametrize("n", [64, 128])
    def test_peel_rebuilds_reduced_gauged_forms(self, n):
        for seed in range(3):
            rng = np.random.default_rng([5100 + n, seed])
            col = sc.apply_state_gauge(
                random_colligation(rng, n, rmax=0.9), random_unitary(rng, n)
            )
            H = sc.reduce_to_special_lower_hessenberg(col.matrix).H
            params = sc.SchurParameterSequence(tuple(co._peel(H)))
            assert np.linalg.norm(H - sc.closed_form_matrix(params), 2) <= 1e-13


class TestSectionChain:
    """S, r and l off the section chain of a matrix in exact lower form."""

    POINTS = np.concatenate(
        [disc_samples(60, radius=0.999), circle_samples(32), [0.0, 1.0, -1.0j]]
    )

    def assert_agrees_with_per_point_solves(self, col):
        # both routes are backward stable, so at each point they differ by
        # at most about eps times the condition number of I - z D (3.5e3 at
        # n = 256 on the circle, where they differ by 4.5e-13 relative)
        n = col.n
        s, r, l = co._section_chain(col, self.POINTS)
        r_ref = reference_resolvent(col.D, self.POINTS, col.C)
        l_ref = reference_resolvent(col.D.T, self.POINTS, col.B)
        s_ref = col.A + self.POINTS * (r_ref @ col.B)
        assert r.shape == l.shape == (len(self.POINTS), n)
        for k, z in enumerate(self.POINTS):
            M = np.eye(n) - z * col.D
            bound = 1e-14 * np.linalg.cond(M)
            assert np.abs(r[k] - r_ref[k]).max() <= bound * np.abs(r_ref[k]).max()
            assert np.abs(l[k] - l_ref[k]).max() <= bound * np.abs(l_ref[k]).max()
            assert abs(s[k] - s_ref[k]) <= bound
            assert np.abs(M @ r[k] - col.C).max() <= 1e-14 * np.abs(r[k]).max()
            assert np.abs(l[k] @ M - col.B).max() <= 1e-14 * np.abs(l[k]).max()

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_agrees_with_per_point_solves(self, n):
        for seed in range(3 if n < 256 else 1):
            rng = np.random.default_rng([5200 + n, seed])
            self.assert_agrees_with_per_point_solves(
                random_colligation(rng, n, rmax=0.99)
            )

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_gauged_vectors_are_mapped_back(self, n):
        # r and l of the kept lower form H, mapped to the matrix by its gauge
        for seed in range(3):
            rng = np.random.default_rng([5210 + n, seed])
            self.assert_agrees_with_per_point_solves(
                gauged_colligation(rng, n, rmax=0.99)
            )

    def test_values_are_the_folds(self):
        col = random_colligation(np.random.default_rng(5201), 32)
        s, _, _ = co._section_chain(col, self.POINTS)
        # the chain runs the fold's array mode and only adds to it
        assert s.tobytes() == co._fold(col._sections, self.POINTS).tobytes()

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_closed_form_identities_take_no_solve(self, n, monkeypatch):
        col = random_colligation(np.random.default_rng(5202 + n), n)
        zs, zetas = disc_samples(20, radius=0.9), 0.5 * disc_samples(13)
        solved = count_linear_solves(monkeypatch)
        report = sc.verify_spectral_identities(col, zs, zetas)
        disc_excess, circle_dev = sc.inner_sampling_report(col)
        assert solved == []
        assert report.max_residual <= 1e-13
        assert disc_excess <= 1e-10
        assert circle_dev <= 1e-12

    def test_a_point_outside_the_disc_is_named(self):
        # the identities hold in the closed disc, where the chain is taken
        col = random_colligation(np.random.default_rng(5203), 8)
        zs, zetas = disc_samples(6, radius=0.9), disc_samples(6, radius=0.5)
        zetas[2] = 1.2
        with pytest.raises(sc.DiscViolation) as info:
            sc.verify_spectral_identities(col, zs, zetas)
        assert repr(complex(1.2)) in str(info.value)

    def test_a_pole_on_the_circle_is_named(self):
        # s_0 = 1 / |(1, 1e-12)| rounds to exactly 1 and s_1 = -1, so the
        # fold (1 - z) / (1 - z) divides 0 by 0 at z = 1, the pole of the
        # resolvent of D = 1; the sweep warns nowhere and names the point
        col = sc.UnitaryColligation(np.array([[1.0, 1e-12], [1e-12, 1.0]]))
        assert col._sections == (1.0, -1.0)
        assert sc.verify_spectral_identities(col, [0.5], [0.3]).max_residual <= 1e-14
        named = re.escape(f"z = {1 + 0j!r}")
        for zs, zetas in (([1.0], [0.5]), ([0.5, 0.2], [0.3, 1.0])):
            with pytest.raises(sc.NearPole, match=named):
                sc.verify_spectral_identities(col, zs, zetas)
        with pytest.raises(sc.NearPole, match=named):
            sc.characteristic_function(col, np.array([0.5, 1.0]))

    def test_two_dimensional_samples_are_a_dimension_mismatch(self, monkeypatch):
        col = gauged_colligation(np.random.default_rng(5204), 8)
        grid = disc_samples(6, radius=0.9).reshape(2, 3)
        reduced = count_reductions(monkeypatch)
        for zs, zetas in ((grid, grid), (grid.ravel(), grid), (grid, grid.ravel())):
            with pytest.raises(sc.DimensionMismatch, match="must be 1-D"):
                sc.verify_spectral_identities(col, zs, zetas)
        assert reduced == []


class TestFoldBits:
    """The fold keeps the bits of its arithmetic, alone, in arrays and in checks."""

    POINTS = np.concatenate(
        [disc_samples(40, radius=0.99), circle_samples(32), [0.0, 1.0, -1.0j]]
    )

    @pytest.mark.parametrize("n", [1, 8, 64, 128])
    def test_characteristic_function(self, n):
        col = random_colligation(np.random.default_rng(5300 + n), n)
        points = self.POINTS.tolist()
        expected = np.array([reference_fold(col._sections, z) for z in points])
        values = sc.characteristic_function(col, self.POINTS)
        singles = np.array([sc.characteristic_function(col, z) for z in self.POINTS])
        assert values.tobytes() == singles.tobytes() == expected.tobytes()
        folded = co._fold(col._sections, self.POINTS)
        assert folded.tobytes() == reference_fold(col._sections, self.POINTS).tobytes()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_backward_error(self, n):
        rng = np.random.default_rng(5400 + n)
        closed = random_colligation(rng, n, rmax=0.9)
        cascade = sc.model_colligation(sc.BlaschkeProduct(1.0, CLUSTER))
        gauged = sc.apply_state_gauge(closed, random_unitary(rng, n))
        for col in (closed, gauged, cascade):
            params = sc.schur_algorithm_state_space(col).parameters
            count = sc.schur_state._check_count(col.n)
            exact = sc.schur_state._circle_values(col, circle_samples(count))
            folded = reference_fold(params, circle_samples(count))
            expected = float(np.abs(folded - exact).max())
            assert sc.schur_state._backward_error(col, params) == expected


class TestMinimality:
    def test_delay_is_minimal(self):
        assert band_length(sc.UnitaryColligation(DELAY)) == 1
        assert sc.UnitaryColligation(DELAY).minimal

    def test_decoupled_state_has_rank_zero(self):
        rng = np.random.default_rng(4)
        v = random_unitary(rng, 3)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0j
        m[1:, 1:] = v
        # B = 0: the band is zero from its first entry on
        assert band_length(sc.UnitaryColligation(m)) == 0
        H = sc.reduce_to_special_lower_hessenberg(m).H
        assert sc.band_residual(H) == np.inf
        assert not sc.UnitaryColligation(m).minimal

    def test_parameter_matrix_is_minimal(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        assert band_length(col) == 2
        assert col.minimal

    def test_identity_two_by_two_not_minimal(self):
        assert not sc.UnitaryColligation(np.eye(2)).minimal

    @pytest.mark.parametrize("n", [64, 128])
    def test_large_parameter_colligation_is_minimal(self, n):
        # at n = 64 the Krylov matrices of this colligation had numerical
        # ranks 46, 46 and 50; its smallest band entry is 0.32
        col = sc.colligation_from_schur_parameters(
            random_params(np.random.default_rng(0), n)
        )
        assert col.minimal is True
        assert band_length(col) == n


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

    def test_degree_zero_takes_the_empty_gauge(self):
        col = sc.UnitaryColligation(np.array([[np.exp(0.3j)]]))
        assert sc.unitarity_residual(np.zeros((0, 0))) == 0.0
        out = sc.apply_state_gauge(col, np.zeros((0, 0)))
        assert out.n == 0
        assert np.array_equal(out.matrix, col.matrix)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (3, 2), (0, 1), (2, 2, 2)])
    def test_residuals_take_only_square_matrices(self, shape):
        # the shape is read before any arithmetic: a vector, a 0-d or 3-d
        # array and a rectangular matrix are typed failures, not a residual
        for residual in (sc.unitarity_residual, sc.band_residual):
            with pytest.raises(sc.DimensionMismatch, match="square"):
                residual(np.ones(shape))


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

    def test_intertwining_residual_checks_dimensions(self):
        # the mistakes apply_state_gauge rejects, typed the same way
        col = random_colligation(np.random.default_rng(10), 3)
        for other, v in [(col, np.eye(2)), (sc.UnitaryColligation(DELAY), np.eye(3))]:
            with pytest.raises(sc.DimensionMismatch):
                sc.intertwining_residual(col, other, v)

    def test_different_functions_give_none(self):
        col1 = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.2j, 1.0))
        )
        col2 = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.1, 0.2j, 1.0))
        )
        assert sc.find_equivalence(col1, col2) is None

    def test_haar_gauged_n32(self):
        # the Krylov ranks of this draw disagreed (InternalInconsistency);
        # the band gauge intertwines it to about 1e-10
        rng = np.random.default_rng(47)
        col = sc.colligation_from_schur_parameters(random_params(rng, 32))
        gauged = sc.apply_state_gauge(col, random_unitary(rng, 32))
        for first, second in ((col, gauged), (gauged, col)):
            v = sc.find_equivalence(first, second)
            assert sc.intertwining_residual(first, second, v) <= sc.tolerances.EQUIV

    def test_different_degrees_give_none(self):
        col1 = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.2j, 1.0))
        )
        assert sc.find_equivalence(col1, sc.UnitaryColligation(DELAY)) is None

    def test_equal_functions_get_their_gauge_from_the_fold(self, monkeypatch):
        # with the residual test forced to fail, the folds of the peeled
        # parameters decide, and equal functions get V1 V2*
        monkeypatch.setattr(sc.hessenberg, "intertwining_residual", lambda *a: 1.0)
        col = random_colligation(np.random.default_rng(11), 3)
        v = sc.find_equivalence(col, col)
        assert v is not None
        assert sc.intertwining_residual(col, col, v) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    def test_haar_gauged_closed_forms_get_a_gauge(self, n):
        # the two forms differ by a forward error that grows with kappa
        # (|H1 - H2| had median 1.8e-6 at n = 64 and 1.0 at n = 128), so
        # V1 V2* misses EQUIV; the folds of the peeled parameters agree to
        # about 1e-11 on the circle
        rng = np.random.default_rng(n)
        for _ in range(20):
            col = sc.colligation_from_schur_parameters(random_params(rng, n, rmax=0.9))
            gauged = sc.apply_state_gauge(col, random_unitary(rng, n))
            for first, second in ((col, gauged), (gauged, col)):
                assert sc.find_equivalence(first, second) is not None

    def test_near_unimodular_peel_is_not_simple(self, monkeypatch):
        # |s_2| = 1 - 1e-10 leaves the band minimal (d_2 = 1.4e-5) but is
        # outside the disc the fold needs, like a zero band entry
        monkeypatch.setattr(sc.hessenberg, "intertwining_residual", lambda *a: 1.0)
        params = list(random_params(np.random.default_rng(13), 8).params)
        params[2] = (1.0 - 1e-10) * 1j
        near = sc.UnitaryColligation(
            sc.schur_state._closed_form(params)
        )
        assert sc.band_residual(near.matrix) <= 1.0
        with pytest.raises(sc.NotSimple):
            sc.find_equivalence(near, near)

    def test_first_parameter_moved_gives_none(self):
        params = random_params(np.random.default_rng(14), 8).params
        col1 = sc.colligation_from_schur_parameters(params)
        col2 = sc.colligation_from_schur_parameters((params[0] + 1e-3,) + params[1:])
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

    def test_rejects_non_vector_inputs(self):
        col = sc.UnitaryColligation(DELAY)
        for inputs in (1.0, np.zeros((3, 1)), np.zeros((2, 2))):
            with pytest.raises(sc.DimensionMismatch):
                sc.simulate_time_domain(col, inputs)


def gauged_colligation(rng, n, **kwargs):
    """A minimal colligation of degree n under a random state gauge (dense D)."""
    return sc.apply_state_gauge(
        random_colligation(rng, n, **kwargs), random_unitary(rng, n)
    )


def count_matrix_powers(monkeypatch):
    """The exponents of every np.linalg.matrix_power call from here on."""
    calls = []
    power = np.linalg.matrix_power

    def counted(D, k):
        calls.append(k)
        return power(D, k)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    return calls


class TestBlockedSimulation:
    """The blocked recursion against the step-by-step loop of the helpers."""

    @pytest.mark.parametrize("n", [0, 1, 2, 16, 31, 33, 64, 128])
    def test_matches_the_step_by_step_loop(self, n):
        rng = np.random.default_rng(1000 + n)
        col = gauged_colligation(rng, n)
        edges = (L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1)
        for m in (0, 1, *edges, 3 * L + 5, 5 * L, 2048):
            inputs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            outputs, states = sc.simulate_time_domain(col, inputs)
            ref_outputs, ref_states = reference_simulation(col, inputs)
            assert outputs.shape == ref_outputs.shape
            assert states.shape == ref_states.shape == (m + 1, n)
            assert states.flags.c_contiguous
            assert np.abs(outputs - ref_outputs).max(initial=0.0) <= 1e-12
            assert np.abs(states - ref_states).max(initial=0.0) <= 1e-12
            balance = (
                np.sum(np.abs(outputs) ** 2)
                + np.sum(np.abs(states[-1]) ** 2)
                - np.sum(np.abs(inputs) ** 2)
            )
            assert abs(balance) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 16, 31, 128])
    def test_impulse_response_is_the_markov_parameters_bitwise(self, n):
        rng = np.random.default_rng(2000 + n)
        col = gauged_colligation(rng, n)
        for m in (1, 10, 33, 100, 257):
            impulse = np.zeros(m, dtype=complex)
            impulse[0] = 1.0
            outputs, _ = sc.simulate_time_domain(col, impulse)
            assert np.array_equal(outputs, sc.markov_parameters(col, m))

    def test_block_power_is_formed_once_per_colligation(self, monkeypatch):
        calls = count_matrix_powers(monkeypatch)
        col = gauged_colligation(np.random.default_rng(2100), 8)
        inputs = np.ones(3 * L + 5)
        first, _ = sc.simulate_time_domain(col, inputs)
        second, _ = sc.simulate_time_domain(col, inputs)
        sc.markov_parameters(col, 3 * L)
        assert calls == [co.BLOCK]
        assert np.array_equal(first, second)

    def test_block_power_is_not_formed_for_one_block(self, monkeypatch):
        calls = count_matrix_powers(monkeypatch)
        col = gauged_colligation(np.random.default_rng(2150), 8)
        for m in (0, 1, L - 1, L):
            sc.simulate_time_domain(col, np.ones(m))
            sc.markov_parameters(col, m)
        assert calls == []
        # the edge of a second, partial block lies past the run: not carried
        for m in (L + 1, 2 * L - 1):
            sc.simulate_time_domain(col, np.ones(m))
        assert calls == []
        sc.simulate_time_domain(col, np.ones(2 * L))
        assert calls == [co.BLOCK]

    def test_first_krylov_block_is_formed_once_per_colligation(self, monkeypatch):
        built = []
        kept = co.UnitaryColligation._krylov_head
        build = kept.func

        def counted(col):
            built.append(col)
            return build(col)

        monkeypatch.setattr(kept, "func", counted)
        col = gauged_colligation(np.random.default_rng(2200), 8)
        inputs = np.ones(3 * L + 5)
        first, _ = sc.simulate_time_domain(col, inputs)
        second, _ = sc.simulate_time_domain(col, inputs)
        sc.markov_parameters(col, 3 * L)
        assert built == [col]
        assert np.array_equal(first, second)
        # rows C, DC, ..., kept read-only
        head = col._krylov_head
        assert head.shape == (L, 8) and not head.flags.writeable
        assert not col._d_power.flags.writeable


class TestMarkovParameters:
    def test_delay(self):
        assert_allclose(
            sc.markov_parameters(sc.UnitaryColligation(DELAY), 3), [0.0, 1.0, 0.0]
        )

    def test_zero_count_is_empty(self):
        out = sc.markov_parameters(sc.UnitaryColligation(DELAY), 0)
        assert out.shape == (0,) and out.dtype == complex

    def test_negative_count_raises(self):
        with pytest.raises(sc.DimensionMismatch):
            sc.markov_parameters(sc.UnitaryColligation(DELAY), -1)

    @pytest.mark.parametrize("count", [2.0, True, np.True_, "3", None])
    def test_count_that_is_not_an_integer_raises(self, count):
        with pytest.raises(sc.DimensionMismatch):
            sc.markov_parameters(sc.UnitaryColligation(DELAY), count)

    def test_numpy_integer_count(self):
        out = sc.markov_parameters(sc.UnitaryColligation(DELAY), np.int64(3))
        assert_allclose(out, [0.0, 1.0, 0.0])

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
            assert hankel_rank(col) == n == band_length(col)


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

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_gauged_forms_take_no_solve(self, n, monkeypatch):
        col = gauged_colligation(np.random.default_rng(1800 + n), n)
        zs, zetas = disc_samples(20, radius=0.9), 0.5 * disc_samples(13)
        solved = count_linear_solves(monkeypatch)
        report = sc.verify_spectral_identities(col, zs, zetas)
        assert solved == []
        assert report.max_residual <= 1e-13

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

    @pytest.mark.parametrize(
        "counts", [(-1, 5), (0, 5), (5, 0), (2.5, 5), (5, True), (5, "5")]
    )
    def test_no_sample_is_not_a_pass(self, counts):
        # a count below 1 once returned (0.0, 2.2e-16), a pass on no disc sample
        col = random_colligation(np.random.default_rng(21), 5)
        with pytest.raises(sc.DimensionMismatch, match="sample count"):
            sc.inner_sampling_report(col, *counts)

    def test_a_pole_on_the_circle_deviates_without_bound(self):
        # the fold divides 0 by 0 at the first circle sample, z = 1 (see
        # TestSectionChain::test_a_pole_on_the_circle_is_named); the
        # deviation is inf, never NaN, which would compare as a pass
        col = sc.UnitaryColligation(np.array([[1.0, 1e-12], [1e-12, 1.0]]))
        assert circle_samples(5)[0] == 1.0
        assert sc.inner_sampling_report(col, 5, 5) == (0.0, np.inf)
        assert sc.inner_sampling_report(col, 5, 4)[1] == np.inf

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
