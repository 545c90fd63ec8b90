"""End-to-end command-line checks via subprocess."""

import io
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from helpers import (
    blaschke_values,
    cluster,
    count_full_reductions,
    count_linear_solves,
    count_resolvent_solves,
    count_unitarity_residuals,
    half_step_samples,
    mobius_fold,
    random_params,
    random_unitary,
)
from schurcol import cli
from schurcol import serialize as js
from schurcol.sampling import disc_samples


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "schurcol.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def matrix_from_doc(doc):
    return np.array(
        [[complex(re, im) for re, im in row] for row in doc["matrix"]]
    )


PARAMS_DELAY = '{"params":[[0,0],[1,0]]}'


def gauged_n128():
    """A gauged degree-128 parameter colligation, unitary to 1e-15."""
    rng = np.random.default_rng(128)
    p = random_params(rng, 128, rmax=0.9)
    return sc.apply_state_gauge(
        sc.colligation_from_schur_parameters(p), random_unitary(rng, 128)
    )


def diagnostics(stderr):
    """The {check, residual, tolerance} lines of a run's stderr, by check name."""
    return {c["check"]: c for c in map(json.loads, stderr.splitlines())}


def assert_realizes_zeros(out, zeros):
    """`realize` on zeros exited 0 with its three checks, S the zero product's."""
    assert out.returncode == 0, out.stderr
    assert set(diagnostics(out.stderr)) == {"backward_error", "unitarity", "band_minimum"}
    col = sc.UnitaryColligation(matrix_from_doc(json.loads(out.stdout)))
    z = disc_samples(50, 0.95)
    error = np.abs(sc.characteristic_function(col, z) - blaschke_values(zeros, z)).max()
    assert error <= 1e-10


class TestRealize:
    def test_params_to_delay_matrix(self):
        out = run_cli(["realize"], PARAMS_DELAY)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["n"] == 1
        assert_allclose(matrix_from_doc(doc), [[0.0, 1.0], [1.0, 0.0]])

    def test_blaschke_model_route(self):
        out = run_cli(
            ["realize", "--route", "model"], '{"c":[-1,0],"zeros":[[0,0]]}'
        )
        assert out.returncode == 0, out.stderr
        assert_allclose(
            matrix_from_doc(json.loads(out.stdout)), [[0.0, 1.0], [1.0, 0.0]],
            atol=1e-14,
        )

    def test_cross_route_diagnostic(self):
        zeros = (0.3, -0.4j)
        out = run_cli(
            ["realize", "--route", "closed-form"],
            '{"c":[1,0],"zeros":[[0.3,0],[0,-0.4]]}',
        )
        assert_realizes_zeros(out, zeros)

    def test_clustered_zeros_model_route_runs_no_recursion(self):
        # the coefficient route ran first and raised DegreeDropFailure on
        # these zeros; the route now writes the cascade.  The Krylov rank
        # diagnostics called the cascade deficient (by 5, 5 and 3) and
        # exited 3; the band calls it minimal
        zeros = cluster(12, 0.97)
        doc = js.blaschke_to_json(sc.BlaschkeProduct(1.0, zeros))
        out = run_cli(["realize", "--route", "model"], js.dumps_canonical(doc))
        assert out.returncode == 0, out.stderr
        checks = list(map(json.loads, out.stderr.splitlines()))
        assert {c["check"] for c in checks} == {"unitarity", "band_minimum"}
        assert all(c["residual"] <= c["tolerance"] for c in checks)
        expected = sc.model_colligation(sc.BlaschkeProduct(1.0, zeros)).matrix
        assert np.abs(matrix_from_doc(json.loads(out.stdout)) - expected).max() == 0.0

    def test_clustered_zeros_closed_form_route_passes_the_check(self):
        # kappa 1e17: the fold of the parameters peeled off the cascade's
        # lower form matches the zero product, and so does their closed form
        zeros = cluster(12, 0.97)
        doc = js.blaschke_to_json(sc.BlaschkeProduct(1.0, zeros))
        out = run_cli(["realize"], js.dumps_canonical(doc))
        assert_realizes_zeros(out, zeros)

    def test_backward_error_is_read_off_the_cascade_trace(self):
        b = sc.BlaschkeProduct(1.0, cluster(12, 0.97))
        out = run_cli(["realize"], js.dumps_canonical(js.blaschke_to_json(b)))
        assert out.returncode == 0, out.stderr
        line = diagnostics(out.stderr)["backward_error"]
        trace = sc.schur_algorithm_state_space(sc.model_colligation(b))
        assert line["residual"] == trace.backward_error
        assert line["tolerance"] == sc.tolerances.BACKWARD

    @pytest.mark.parametrize("degree, code", [(32, 3), (8, 0)])
    def test_model_route_on_near_circle_roots_is_numerical(self, degree, code):
        # the parameters are valid (|s| <= 0.9); at degree 32 np.roots puts
        # four zeros of their function within DISC of the circle
        rng = np.random.default_rng(degree)
        s = 0.9 * np.sqrt(rng.uniform(size=degree)) * np.exp(
            2j * np.pi * rng.uniform(size=degree)
        )
        doc = {"params": [[x.real, x.imag] for x in s] + [[1.0, 0.0]]}
        out = run_cli(["realize", "--route", "model"], json.dumps(doc))
        assert out.returncode == code, out.stderr
        if code:
            assert "is not strictly inside the disc" in out.stderr

    def test_invalid_input_exits_2(self):
        out = run_cli(["realize"], '{"params":[[2,0],[1,0]]}')
        assert out.returncode == 2

    def test_params_through_model_route(self):
        out = run_cli(
            ["realize", "--route", "model"], '{"params":[[0.5,0],[-1,0]]}'
        )
        assert out.returncode == 0, out.stderr
        r = np.sqrt(0.75)
        got = matrix_from_doc(json.loads(out.stdout))
        assert_allclose(got, [[0.5, r], [-r, 0.5]], atol=1e-12)

    def test_pipe_closure(self):
        payload = '{"params":[[0.5,0],[0,0.3],[-0.2,0.1],[0,1]]}'
        realized = run_cli(["realize", "--route", "closed-form"], payload)
        assert realized.returncode == 0, realized.stderr
        traced = run_cli(["schur"], realized.stdout)
        assert traced.returncode == 0, traced.stderr
        recovered = json.loads(traced.stdout)["parameters"]
        expected = json.loads(payload)["params"]
        assert_allclose(recovered, expected, atol=1e-8)


class TestSchur:
    @pytest.mark.parametrize("command", ["schur", "realize"])
    def test_failing_backward_check_is_written(self, command, monkeypatch, capsys):
        # a degree-3 closed form (schur) and zero set (realize): the
        # recursion's residual of about 1e-15 misses a bound of 1e-20, the
        # run exits 3 and stderr carries the failed check's line
        monkeypatch.setattr(sc.tolerances, "BACKWARD", 1e-20)
        if command == "schur":
            col = sc.colligation_from_schur_parameters(
                sc.SchurParameterSequence((0.36 + 0.48j, -0.8j, -0.6, 0.6 + 0.8j))
            )
            doc = js.colligation_to_json(col)
        else:
            zeros = (0.5, 0.25j, -0.25 - 0.5j)
            doc = js.blaschke_to_json(sc.BlaschkeProduct(1.0, zeros))
        monkeypatch.setattr(sys, "stdin", io.StringIO(js.dumps_canonical(doc)))
        assert cli.main([command]) == 3
        err = capsys.readouterr().err
        (line,) = [json.loads(line) for line in err.splitlines()[:-1]]
        assert line["check"] == "backward_error" and line["tolerance"] == 1e-20
        assert line["residual"] > 1e-20
        assert "miss the input's function" in err.splitlines()[-1]

    def test_backward_failure_carries_its_residual(self, monkeypatch):
        monkeypatch.setattr(sc.tolerances, "BACKWARD", 1e-20)
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        with pytest.raises(sc.errors.InternalInconsistency) as info:
            sc.schur_algorithm_state_space(col)
        assert info.value.tolerance == 1e-20
        assert 1e-20 < info.value.residual < 1e-12

    def test_delay(self):
        out = run_cli(["schur"], '{"n":1,"matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}')
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["complete"] is True
        assert_allclose(doc["parameters"], [[0.0, 0.0], [1.0, 0.0]])

    def test_nonminimal_partial_trace(self):
        out = run_cli(["schur"], '{"n":1,"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]]}')
        assert out.returncode == 2
        doc = json.loads(out.stdout)
        assert doc["complete"] is False
        assert "step 0" in doc["message"]

    def test_early_stop_on_minimal_input_exits_3(self):
        # |s_0| = 1 - 5e-10 is past the disc margin, but the band entry
        # d_0 = 3.2e-5 says minimal: the stop is numerical, not the input's
        s0 = 1.0 - 5e-10
        d0 = np.sqrt(1.0 - s0**2)
        m = np.array([[s0, d0], [d0, -s0]], dtype=complex)
        doc = js.colligation_to_json(sc.UnitaryColligation(m))
        out = run_cli(["schur"], js.dumps_canonical(doc))
        assert out.returncode == 3, out.stderr
        doc = json.loads(out.stdout)
        assert doc["complete"] is False
        assert "not minimal" not in doc["message"]

    @pytest.mark.parametrize(
        "count, radius, turn", [(10, 0.9, 0.0), (12, 0.97, 1 / 32), (64, 0.9, 0.0)]
    )
    def test_clustered_cascade_completes(self, count, radius, turn):
        # turn 1/32 puts the 12 zeros between two 16th roots of unity; the
        # written denominator is the zero product's, prod (1 - z conj(a))
        zeros = cluster(count, radius, turn)
        col = sc.model_colligation(sc.BlaschkeProduct(1.0, zeros))
        out = run_cli(["schur"], js.dumps_canonical(js.colligation_to_json(col)))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["complete"] is True
        written = np.array([complex(re, im) for re, im in doc["denominators"][0]])
        den = np.poly(np.conj(zeros))
        assert np.abs(written - den).max() <= 1e-14 * np.abs(den).sum()

    def test_gauged_n128_is_never_a_validation_failure(self):
        # unitary to 1e-15, kappa 1e12: the fold of the peeled parameters
        # matches the input's S on the circle, the run's one function check
        col = gauged_n128()
        assert sc.unitarity_residual(col.matrix) <= 1e-14
        out = run_cli(["schur"], js.dumps_canonical(js.colligation_to_json(col)))
        assert out.returncode == 0, out.stderr
        assert set(diagnostics(out.stderr)) == {"trace_complete", "backward_error"}

    def test_gauged_n128_trace_is_small_and_holds_the_iterates(self):
        col = gauged_n128()
        out = run_cli(["schur"], js.dumps_canonical(js.colligation_to_json(col)))
        assert len(out.stdout.encode()) <= 1 << 20
        doc = json.loads(out.stdout)
        assert list(doc) == ["parameters", "H", "denominators", "complete", "message"]
        H = matrix_from_doc({"matrix": doc["H"]})
        trace = sc.schur_algorithm_state_space(col)
        assert len(trace.matrices) == 129
        # the recipe of README: the peel loop, one section at a time
        n = len(H) - 1
        column = H[:, 0]
        for p, iterate in enumerate(trace.matrices):
            a = complex(column[0])
            b = H[p, p + 1].real if p < n else 0.0
            scale = 1.0 / math.hypot(a.real, a.imag, b)
            rebuilt = H[p:, p:].copy()
            rebuilt[:, 0] = column * scale
            assert np.abs(rebuilt - iterate).max() <= 1e-15
            if p < n:
                column = (b * scale) * column[1:] - (a * scale) * H[p + 1 :, p + 1]

    def test_krylov_rank_deficient_input_completes(self):
        # sequence k = 1 of degree 32 and the degree-64 sequence of the
        # cli_pipeline benchmark at seed 7919.  Their Krylov matrices had
        # numerical rank 31 of 32 and 53 of 64: the round-trip check through
        # find_equivalence exited 2 on the first, and the rank diagnostics
        # made realize and verify exit 3 on both
        rng = np.random.default_rng([7919, 4])
        rng.uniform(size=(2, 16))  # the benchmark's 16 sample points
        for _ in range(4):
            random_params(rng, 8)
        random_params(rng, 32)
        sequences = [random_params(rng, 32)]
        for _ in range(2):
            random_params(rng, 32)
        sequences.append(random_params(rng, 64))
        for p in sequences:
            doc = {"params": [[z.real, z.imag] for z in p.params]}
            realized = run_cli(["realize"], json.dumps(doc))
            assert realized.returncode == 0, realized.stderr
            verified = run_cli(["verify"], realized.stdout)
            assert verified.returncode == 0, verified.stderr
            out = run_cli(["schur"], realized.stdout)
            assert out.returncode == 0, out.stderr
            got = np.array([complex(*v) for v in json.loads(out.stdout)["parameters"]])
            assert np.abs(got - np.asarray(p.params)).max() <= 1e-8


class TestHessenberg:
    def test_identity(self):
        out = run_cli(
            ["hessenberg"],
            '{"matrix":[[[1,0],[0,0],[0,0]],[[0,0],[1,0],[0,0]],[[0,0],[0,0],[1,0]]]}',
        )
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["orientation"] == "lower"
        assert_allclose(
            np.array(
                [[complex(re, im) for re, im in row] for row in doc["V"]]
            ),
            np.eye(2),
        )

    def test_already_reduced_parameter_matrix(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        out = run_cli(["hessenberg"], js.dumps_canonical(js.colligation_to_json(col)))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert_allclose(matrix_from_doc({"matrix": doc["H"]}), col.matrix, atol=1e-14)

    def test_declared_n_must_match_the_matrix(self, tmp_path, capsys):
        # read like every other colligation document: verify rejects it too,
        # and a declared dimension is a JSON integer, not one int() accepts
        source = tmp_path / "mismatch.json"
        for n, message in [
            ("5", "declared state dimension 5 does not match matrix size 2"),
            ("1.9", "declared state dimension must be an integer, not 1.9"),
            ("true", "declared state dimension must be an integer, not true"),
            ('"1"', 'declared state dimension must be an integer, not "1"'),
        ]:
            source.write_text(f'{{"n":{n},"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]]}}')
            for command in ("hessenberg", "verify"):
                assert cli.main([command, "--input", str(source)]) == 2
                assert capsys.readouterr().err.endswith(message + "\n")
        first = js.partitioned_to_json(sc.elementary_schur_section(0.3).partitioned)
        first["dims"]["e1"] = 1.5
        second = js.colligation_to_json(sc.UnitaryColligation(np.eye(2)[::-1]))
        source.write_text(js.dumps_canonical({"first": first, "second": second}))
        assert cli.main(["couple", "--input", str(source)]) == 2
        assert capsys.readouterr().err.endswith("dims.e1 must be an integer, not 1.5\n")

    def test_params_pipeline_runs_no_full_reduction(self, tmp_path, monkeypatch):
        # realize builds the closed form, which is its own lower form, and
        # its JSON round trip keeps the exact zeros and the real band
        entered = count_full_reductions(monkeypatch)
        params = tmp_path / "params.json"
        params.write_text(
            js.dumps_canonical(
                js.params_to_json(random_params(np.random.default_rng(71), 32, rmax=0.9))
            )
        )
        realized = tmp_path / "col.json"
        assert cli.main(["realize", "--input", str(params), "--output", str(realized)]) == 0
        assert cli.main(["schur", "--input", str(realized), "--output", str(tmp_path / "t")]) == 0
        assert entered == []

    def test_schur_parameters_match_the_full_reduction(self, tmp_path, monkeypatch):
        params = tmp_path / "params.json"
        params.write_text(
            js.dumps_canonical(
                js.params_to_json(random_params(np.random.default_rng(72), 32, rmax=0.9))
            )
        )
        realized = tmp_path / "col.json"
        assert cli.main(["realize", "--input", str(params), "--output", str(realized)]) == 0

        def schur_parameters(out):
            assert cli.main(["schur", "--input", str(realized), "--output", str(out)]) == 0
            return np.array(
                [complex(re, im) for re, im in json.loads(out.read_text())["parameters"]]
            )

        entered = count_full_reductions(monkeypatch)
        shortcut = schur_parameters(tmp_path / "shortcut.json")
        # the colligation's own exactness test and the reduction's, so that
        # the parameters are peeled off the H that Arnoldi built
        for module in (sc.colligation, sc.hessenberg):
            monkeypatch.setattr(module, "_in_lower_form", lambda M: False)
        built, peeled = [], []
        loop, peel = sc.hessenberg._arnoldi_lower, sc.colligation._peel
        monkeypatch.setattr(
            sc.hessenberg,
            "_arnoldi_lower",
            lambda M: built.append(loop(M)) or built[-1],
        )
        monkeypatch.setattr(
            sc.colligation, "_peel", lambda H: peeled.append(H) or peel(H)
        )
        full = schur_parameters(tmp_path / "full.json")
        assert entered == [32]
        assert len(peeled) == 1 and peeled[0] is built[0][0]
        assert np.abs(shortcut - full).max() <= 1e-15

    @pytest.mark.parametrize(
        "matrix",
        [
            [[[1, 0], [0, 0]]],  # 1 x 2
            [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],  # 2 x 3
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]],  # 3 x 2
            [[]],  # 1 x 0
            [],  # 0
        ],
    )
    @pytest.mark.parametrize("orientation", ["lower", "upper"])
    def test_non_square_input_exits_2(self, matrix, orientation, tmp_path, capsys):
        source = tmp_path / "matrix.json"
        source.write_text(json.dumps({"matrix": matrix}))
        out = tmp_path / "cert.json"
        argv = ["hessenberg", "--orientation", orientation, "--input", str(source)]
        assert cli.main([*argv, "--output", str(out)]) == 2
        assert "non-empty square matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("orientation", ["lower", "upper"])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_lines_are_written_against_the_applied_bound(
        self, n, orientation, tmp_path, capsys
    ):
        # the reduction checks both residuals against CERTIFICATE, the
        # reconstruction relative to max|M|; the lines carry that bound
        # and the stored values, on the exact-form shortcut and off it
        rng = np.random.default_rng(75 + n)
        closed = sc.colligation_from_schur_parameters(random_params(rng, n, rmax=0.9))
        reduce = {
            "lower": sc.reduce_to_special_lower_hessenberg,
            "upper": sc.reduce_to_special_upper_hessenberg,
        }[orientation]
        for col in (closed, sc.apply_state_gauge(closed, random_unitary(rng, n))):
            source = tmp_path / "matrix.json"
            source.write_text(js.dumps_canonical(js.colligation_to_json(col)))
            argv = ["hessenberg", "--orientation", orientation, "--input", str(source)]
            assert cli.main([*argv, "--output", str(tmp_path / "cert.json")]) == 0
            checks = diagnostics(capsys.readouterr().err)
            assert set(checks) == {"gauge_unitarity", "reconstruction"}
            assert {c["tolerance"] for c in checks.values()} == {1e-11}
            cert = reduce(col.matrix)
            assert checks["reconstruction"]["residual"] == cert.reconstruction
            assert checks["gauge_unitarity"]["residual"] == cert.gauge_unitarity

    def test_random_unitary_via_upper(self):
        rng = np.random.default_rng(70)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(a)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        col = sc.UnitaryColligation(q)
        out = run_cli(
            ["hessenberg", "--orientation", "upper"],
            js.dumps_canonical(js.colligation_to_json(col)),
        )
        assert out.returncode == 0, out.stderr
        H = matrix_from_doc({"matrix": json.loads(out.stdout)["H"]})
        assert np.abs(np.tril(H, -2)).max() <= 1e-12


class TestCoupleEvalVerify:
    def test_couple_section_with_constant(self):
        out = run_cli(
            ["couple"],
            '{"first":{"s0":[0.5,0]},"second":{"n":0,"matrix":[[[-1,0]]]}}',
        )
        assert out.returncode == 0, out.stderr
        r = np.sqrt(0.75)
        assert_allclose(
            matrix_from_doc(json.loads(out.stdout)),
            [[0.5, r], [-r, 0.5]],
            atol=1e-14,
        )

    def test_couple_full_partitioned_document(self):
        section = sc.elementary_schur_section(0.3j)
        doc = {
            "first": js.partitioned_to_json(section.partitioned),
            "second": js.colligation_to_json(
                sc.colligation_from_schur_parameters(
                    sc.SchurParameterSequence((0.2, 1.0))
                )
            ),
        }
        out = run_cli(["couple"], js.dumps_canonical(doc))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["n"] == 2

    def test_couple_solves_its_samples_in_one_batch(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(75)
        doc = tmp_path / "couple.json"
        doc.write_text(
            js.dumps_canonical(
                {
                    "first": js.partitioned_to_json(
                        sc.PartitionedColligation(random_unitary(rng, 6), 1, 1, 4)
                    ),
                    "second": js.colligation_to_json(
                        sc.colligation_from_schur_parameters(random_params(rng, 3))
                    ),
                }
            )
        )
        solved = count_resolvent_solves(monkeypatch)
        argv = ["couple", "--input", str(doc), "--output", str(tmp_path / "o.json")]
        assert cli.main(argv) == 0
        # the second factor and the coupling fold their S; the first
        # factor's characteristic matrix takes one batch of 50 solves
        assert solved == [50]

    def test_eval_colligation(self):
        out = run_cli(
            ["eval", "--z", "0.25", "0"],
            '{"n":1,"matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}',
        )
        assert out.returncode == 0, out.stderr
        assert_allclose(json.loads(out.stdout)["value"], [0.25, 0.0])

    def test_eval_negative_exponent_point(self):
        out = run_cli(
            ["eval", "--z=-1e-3,0"], '{"n":1,"matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}'
        )
        assert out.returncode == 0, out.stderr
        assert_allclose(json.loads(out.stdout)["value"], [-1e-3, 0.0])
        out = run_cli(
            ["eval", "--z=-1e-3,0.5"], '{"n":1,"matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}'
        )
        assert out.returncode == 0, out.stderr
        assert_allclose(json.loads(out.stdout)["value"], [-1e-3, 0.5])

    def test_eval_infinite_point_is_rejected(self):
        out = run_cli(
            ["eval", "--z=0,-inf"], '{"num":[[0.5,0],[-1,0]],"den":[[1,0],[-0.5,0]]}'
        )
        assert out.returncode == 2
        assert out.stderr.startswith("schurcol eval: --z must be finite")

    def test_eval_rational(self):
        out = run_cli(
            ["eval", "--z", "0", "0"], '{"num":[[0.5,0],[-1,0]],"den":[[1,0],[-0.5,0]]}'
        )
        assert out.returncode == 0, out.stderr
        assert_allclose(json.loads(out.stdout)["value"], [0.5, 0.0])

    def test_verify_good_matrix(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        out = run_cli(
            ["verify", "--samples", "20"],
            js.dumps_canonical(js.colligation_to_json(col)),
        )
        assert out.returncode == 0, out.stderr

    def test_verify_perturbed_matrix_fails(self):
        rng = np.random.default_rng(71)
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        noisy = col.matrix + 1e-3 * rng.standard_normal(col.matrix.shape)
        doc = {
            "n": 2,
            "matrix": [[[z.real, z.imag] for z in row] for row in noisy],
        }
        out = run_cli(["verify"], json.dumps(doc))
        assert out.returncode == 3
        checks = [json.loads(line) for line in out.stderr.splitlines()]
        unitarity = next(c for c in checks if c["check"] == "unitarity")
        assert unitarity["residual"] > unitarity["tolerance"]

    def test_verify_non_finite_residual_is_null(self):
        # s_0 = 1 / |(1, 1e-12)| rounds to exactly 1 and s_1 = -1, so the
        # fold divides 0 by 0 at t = 1 on the circle, the pole of the
        # resolvent of D = 1: the circle check reports an infinite
        # deviation, and no warning reaches stderr
        out = run_cli(["verify"], '{"matrix":[[[1,0],[1e-12,0]],[[1e-12,0],[1,0]]]}')
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        checks = {c["check"]: c for c in map(json.loads, out.stderr.splitlines())}
        assert checks["unimodular_on_circle"]["residual"] is None
        assert json.loads(out.stdout)["inner_circle_deviation"] is None

    def test_decoupled_states_fold_to_a_constant(self):
        # the identity's states are decoupled (B = C = 0), so S = 1: its
        # lower form splits at the first band entry and folds to s_0 = 1,
        # also at t = 1 on the circle, where I - tD is singular
        out = run_cli(["verify"], '{"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]]}')
        assert out.returncode == 3
        checks = {c["check"]: c for c in map(json.loads, out.stderr.splitlines())}
        assert checks["unimodular_on_circle"]["residual"] == 0.0
        assert checks["spectral_identities"]["residual"] == 0.0
        assert json.loads(out.stdout)["inner_circle_deviation"] == 0.0

    def test_verify_zero_band_is_null(self):
        # the identity's states are decoupled: its lower form has a zero
        # band entry, whose band residual is infinite
        out = run_cli(["verify"], '{"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]]}')
        assert out.returncode == 3
        checks = {c["check"]: c for c in map(json.loads, out.stderr.splitlines())}
        assert checks["band_minimum"] == {
            "check": "band_minimum", "residual": None, "tolerance": 1.0
        }

    def test_declared_dimension_is_checked_by_every_command(self, tmp_path, capsys):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        doc = tmp_path / "col.json"
        doc.write_text(js.dumps_canonical(dict(js.colligation_to_json(col), n=7)))
        for command in (["verify"], ["schur"], ["eval", "--z", "0.3", "0"]):
            assert cli.main([*command, "--input", str(doc)]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert "declared state dimension 7" in out.err

    def test_verify_nan_matrix_fails(self):
        out = run_cli(["verify"], '{"matrix":[[NaN]]}')
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert json.loads(out.stdout)["unitarity_residual"] is None


class TestReadout:
    """verify ties the identities read off a lower form's sections to the matrix."""

    def verify(self, tmp_path, capsys, matrix):
        source = tmp_path / "col.json"
        doc = {"matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
        source.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["verify", "--input", str(source), "--output", str(tmp_path / "o")]
        code = cli.main(argv)
        summary = json.loads((tmp_path / "o").read_text())
        return code, summary, diagnostics(capsys.readouterr().err)

    def test_closed_form_reads_out_to_roundoff(self, tmp_path, capsys, monkeypatch):
        matrix = sc.closed_form_matrix(random_params(np.random.default_rng(76), 8))
        solved = count_linear_solves(monkeypatch)
        code, summary, checks = self.verify(tmp_path, capsys, matrix)
        assert code == 0
        assert solved == []
        assert "reconstruction" not in checks
        assert checks["readout"]["residual"] <= 1e-14
        assert checks["readout"]["tolerance"] == sc.tolerances.READOUT
        assert summary["spectral_max_residual"] <= 1e-13

    def test_entry_below_the_band_moved_by_3e_11(self, tmp_path, capsys):
        matrix = sc.closed_form_matrix(random_params(np.random.default_rng(76), 8))
        matrix[6, 2] += 3e-11
        code, summary, checks = self.verify(tmp_path, capsys, matrix)
        # unitary and an exact lower form, so the identities come off the
        # sections and hold; only the readout sees that H is not their closed form
        assert checks["unitarity"]["residual"] <= checks["unitarity"]["tolerance"]
        assert 2e-11 <= checks["readout"]["residual"] <= 4e-11
        assert checks["readout"]["residual"] > checks["readout"]["tolerance"]
        assert summary["spectral_max_residual"] <= 1e-11
        assert code == 3

    def test_degree_1024_reads_out_far_below_the_bound(self):
        # a tolerance of 1e-10 / (100 (n + 1)) on the entrywise max|E| would
        # reject this genuine closed form (1.3e-15 against 9.8e-16)
        col = sc.colligation_from_schur_parameters(
            random_params(np.random.default_rng(1024), 1024, rmax=0.99)
        )
        assert sc.readout_residual(col) <= 1e-14

    def test_gauged_form_reads_out_with_its_reconstruction(self, tmp_path, capsys):
        # its S, r and l come off the kept lower form: the readout ties them
        # to that form and the certificate's reconstruction the form to M
        rng = np.random.default_rng(77)
        col = sc.apply_state_gauge(
            sc.colligation_from_schur_parameters(random_params(rng, 8)),
            random_unitary(rng, 8),
        )
        code, summary, checks = self.verify(tmp_path, capsys, col.matrix)
        assert code == 0
        assert checks["readout"]["residual"] <= 1e-14
        assert checks["readout"]["tolerance"] == sc.tolerances.READOUT
        assert checks["reconstruction"]["residual"] <= 1e-15
        assert checks["reconstruction"]["tolerance"] == sc.tolerances.CERTIFICATE
        assert summary["spectral_max_residual"] <= 1e-13

    @pytest.mark.parametrize("n, seed", [(8, 5300), (32, 5305)])
    def test_split_reads_out_over_its_folded_block(self, n, seed):
        # an exact lower form that splits after row p = n / 2: a closed form
        # beside the lower form of a Haar unitary.  S, r and l come off the
        # first block's sections alone, and the readout covers that block;
        # over the whole matrix it read 2.1e-8 and 2.7e-8 on these draws,
        # from the Haar block's peel, which no value reads
        rng = np.random.default_rng(seed)
        p = n // 2
        matrix = np.zeros((n + 1, n + 1), dtype=complex)
        matrix[: p + 1, : p + 1] = sc.closed_form_matrix(random_params(rng, p))
        matrix[p + 1 :, p + 1 :] = sc.reduce_to_special_lower_hessenberg(
            random_unitary(rng, n - p)
        ).H
        col = sc.UnitaryColligation(matrix)
        assert len(col._sections) == p + 1
        assert sc.readout_residual(col) <= 1e-14


class TestResidualsTakenOnce:
    """Each command reads the unitarity residual its colligation or reduction kept."""

    def realized(self, tmp_path, n):
        params = tmp_path / "params.json"
        params.write_text(
            js.dumps_canonical(
                js.params_to_json(random_params(np.random.default_rng(73), n, rmax=0.9))
            )
        )
        realized = tmp_path / "col.json"
        assert cli.main(["realize", "--input", str(params), "--output", str(realized)]) == 0
        return params, realized

    def test_realize_and_verify(self, tmp_path, monkeypatch, capsys):
        params, realized = self.realized(tmp_path, 16)
        taken = count_unitarity_residuals(monkeypatch)
        capsys.readouterr()
        assert cli.main(["realize", "--input", str(params), "--output", str(realized)]) == 0
        assert taken == [17]
        col = js.colligation_from_json(json.loads(realized.read_text()))
        unitarity = diagnostics(capsys.readouterr().err)["unitarity"]["residual"]
        assert unitarity == col.unitarity
        taken.clear()
        summary = tmp_path / "summary.json"
        assert cli.main(["verify", "--input", str(realized), "--output", str(summary)]) == 0
        # the closed form is its own lower form: the band check takes no gauge
        assert taken == [17]
        assert json.loads(summary.read_text())["unitarity_residual"] == col.unitarity

    def test_hessenberg_takes_the_gauge_once(self, tmp_path, monkeypatch, capsys):
        _, realized = self.realized(tmp_path, 16)
        col = js.colligation_from_json(json.loads(realized.read_text()))
        gauged = tmp_path / "gauged.json"
        gauged.write_text(
            js.dumps_canonical(js.colligation_to_json(
                sc.apply_state_gauge(col, random_unitary(np.random.default_rng(74), 16))
            ))
        )
        taken = count_unitarity_residuals(monkeypatch)
        capsys.readouterr()
        for orientation in ("lower", "upper"):
            argv = ["hessenberg", "--orientation", orientation, "--input", str(gauged)]
            assert cli.main([*argv, "--output", str(tmp_path / "cert.json")]) == 0
            assert taken == [16]
            checks = diagnostics(capsys.readouterr().err)
            assert set(checks) == {"gauge_unitarity", "reconstruction"}
            taken.clear()
        # the exact-form shortcut certifies itself without a residual
        assert cli.main(["hessenberg", "--input", str(realized)]) == 0
        assert taken == []
        checks = diagnostics(capsys.readouterr().err)
        assert checks["gauge_unitarity"]["residual"] == 0.0
        assert checks["reconstruction"]["residual"] == 0.0

    def test_couple_takes_the_coupled_residual_once(self, tmp_path, monkeypatch):
        _, realized = self.realized(tmp_path, 8)
        doc = tmp_path / "couple.json"
        doc.write_text(
            js.dumps_canonical(
                {"first": {"s0": [0.3, 0.1]}, "second": json.loads(realized.read_text())}
            )
        )
        taken = count_unitarity_residuals(monkeypatch)
        assert cli.main(["couple", "--input", str(doc), "--output", str(tmp_path / "o")]) == 0
        # the section, the second colligation, the coupling
        assert taken == [3, 9, 10]


class TestNoTraceback:
    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["params"], '{"params":[[0.5,0],[NaN,0]]}'),
            (["params"], '{"zeros":[[NaN,0]],"c":[1,0]}'),
            (["eval", "--z", "0.3", "0"], '{"num":[[NaN,0]],"den":[[1,0]]}'),
            (
                ["eval", "--z", "nan", "0"],
                '{"num":[[0.5,0],[1,0]],"den":[[1,0],[0.5,0]]}',
            ),
            (["hessenberg"], '{"matrix":[[[1,0],[0,0]],[[0,0],[Infinity,0]]]}'),
        ],
        ids=["nan_parameter", "nan_zero", "nan_coefficient", "nan_point", "inf_entry"],
    )
    def test_non_finite_input(self, args, stdin):
        out = run_cli(args, stdin)
        assert out.returncode in (2, 3), out.stderr
        assert "Traceback" not in out.stderr

    def test_unwritable_output_exits_2(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        out = run_cli(["realize", "--output", str(target)], PARAMS_DELAY)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert json.loads(out.stderr.splitlines()[0])["check"] == "unitarity"


class TestOptions:
    @pytest.mark.parametrize(
        "command, option",
        [
            (command, option)
            for command in cli._HANDLERS
            for option in ("--samples", "--seed")
            if not (command == "verify" or (command, option) == ("couple", "--samples"))
        ],
    )
    def test_an_option_the_command_does_not_read_exits_2(self, command, option, capsys):
        required = ["--z", "0", "0"] if command == "eval" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, option, "1", *required])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["couple", "verify"])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_must_be_positive(self, command, samples, capsys):
        # zero samples passed every sampled check of verify without a sample
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--samples", samples])
        assert exc.value.code == 2
        assert (
            f"argument --samples: expected a positive integer, not '{samples}'"
            in capsys.readouterr().err
        )


class TestParams:
    def test_function_to_parameters(self):
        out = run_cli(["params"], '{"num":[[0.5,0],[-1,0]],"den":[[1,0],[-0.5,0]]}')
        assert out.returncode == 0, out.stderr
        assert_allclose(
            json.loads(out.stdout)["params"], [[0.5, 0.0], [-1.0, 0.0]], atol=1e-14
        )

    def test_zeros_go_through_the_cascade(self):
        # the coefficient route raised DegreeDropFailure on these zeros;
        # the cascade recursion recovers them at kappa 1
        zeros = tuple(0.5 * np.exp(2j * np.pi * k / 64) for k in range(64))
        b = sc.BlaschkeProduct(1.0, zeros)
        out = run_cli(["params"], js.dumps_canonical(js.blaschke_to_json(b)))
        assert out.returncode == 0, out.stderr
        params = [complex(*v) for v in json.loads(out.stdout)["params"]]
        assert len(params) == 65
        t = sc.sampling.circle_samples(256)
        assert np.abs(mobius_fold(params, t) - blaschke_values(zeros, t)).max() <= 1e-10

    def test_clustered_zeros_exit_0(self):
        # kappa 1e17, folded between the roots of unity
        zeros = cluster(12, 0.97)
        b = sc.BlaschkeProduct(1.0, zeros)
        out = run_cli(["params"], js.dumps_canonical(js.blaschke_to_json(b)))
        assert out.returncode == 0, out.stderr
        params = [complex(*v) for v in json.loads(out.stdout)["params"]]
        t = half_step_samples(4096)
        assert np.abs(mobius_fold(params, t) - blaschke_values(zeros, t)).max() <= 1e-10

    @pytest.mark.parametrize(
        "count,radius,code", [(12, 0.97, 0), (32, 0.9, 0), (48, 0.9, 3), (64, 0.9, 3)]
    )
    def test_clustered_parameters_to_function(
        self, count, radius, code, tmp_path, capsys
    ):
        # the coefficients of 48 or 64 zeros at 0.9 outgrow den(0) / TRIM:
        # the fold fails typed instead of reading den(0) as zero (exit 2)
        zeros = tmp_path / "zeros.json"
        b = sc.BlaschkeProduct(1.0, cluster(count, radius))
        zeros.write_text(js.dumps_canonical(js.blaschke_to_json(b)), encoding="utf-8")
        params = tmp_path / "params.json"
        assert cli.main(["params", "--input", str(zeros), "--output", str(params)]) == 0
        capsys.readouterr()
        function = tmp_path / "function.json"
        args = ["params", "--input", str(params), "--output", str(function)]
        assert cli.main(args) == code
        if code:
            assert "is within the trim cut" in capsys.readouterr().err
            assert not function.exists()
        else:
            doc = json.loads(function.read_text(encoding="utf-8"))
            assert len(doc["num"]) == len(doc["den"]) == count + 1

    def test_partial_trace_on_the_cascade_exits_3(self, tmp_path, monkeypatch, capsys):
        # the cascade is minimal, so an early stop is the recursion's failure
        original = sc.schur_state.schur_algorithm_state_space

        def stopped(col):
            trace = original(col)
            return sc.SchurStateTrace(
                trace.parameters[:1], trace.H, False,
                "terminated at step 1 of 2", None, trace.kappa,
            )

        monkeypatch.setattr(sc.schur_state, "schur_algorithm_state_space", stopped)
        source = tmp_path / "zeros.json"
        source.write_text('{"c":[1,0],"zeros":[[0.3,0],[0,-0.4]]}', encoding="utf-8")
        assert cli.main(["params", "--input", str(source)]) == 3
        assert "terminated at step 1 of 2" in capsys.readouterr().err

    def test_parameters_to_function(self):
        out = run_cli(["params"], '{"params":[[0.5,0],[-1,0]]}')
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert_allclose(doc["num"], [[0.5, 0.0], [-1.0, 0.0]], atol=1e-14)
        assert_allclose(doc["den"], [[1.0, 0.0], [-0.5, 0.0]], atol=1e-14)


# each command on fixed degree-3 documents: its exit code, stdout and
# stderr as the CLI wrote them when documents held nested [re, im] lists
GOLDEN = json.loads((Path(__file__).parent / "golden_degree3.json").read_text())


class TestGoldenBytes:
    @pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
    def test_same_bytes(self, case, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
        code = cli.main(case["argv"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


class TestDeterminism:
    def test_realize_reruns_byte_identical(self):
        stdin = '{"params":[[0.31,-0.2],[0,0.4],[0,1]]}'
        first = run_cli(["realize"], stdin)
        second = run_cli(["realize"], stdin)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.returncode == second.returncode == 0

    def test_verify_with_fixed_seed_reruns_byte_identical(self):
        stdin = run_cli(["realize"], '{"params":[[0.31,-0.2],[0,0.4],[0,1]]}').stdout
        first = run_cli(["verify", "--samples", "10", "--seed", "5"], stdin)
        second = run_cli(["verify", "--samples", "10", "--seed", "5"], stdin)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.returncode == second.returncode == 0


class TestSerialization:
    def test_colligation_roundtrip(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        doc = js.loads(js.dumps_canonical(js.colligation_to_json(col)))
        back = js.colligation_from_json(doc)
        assert np.abs(back.matrix - col.matrix).max() == 0.0

    def test_seventeen_digit_floats_roundtrip(self):
        value = 1.0 / 3.0
        text = js.dumps_canonical({"x": value})
        assert js.loads(text)["x"] == value

    def test_negative_zero_reads_back_with_its_sign(self):
        # JSON's -0 reads back as the integer 0, so the writer says -0.0
        z = complex(-0.0, -0.0)
        text = js.dumps_canonical({"x": -0.0, "z": js.complex_to_json(z)})
        assert text == '{"x":-0.0,"z":[-0.0,-0.0]}'
        doc = js.loads(text)
        assert np.signbit(doc["x"]) and np.signbit(doc["z"]).all()
        a = np.array([[z, 0.5], [-0.25, complex(1.0, -0.0)]])
        text = js.dumps_canonical({"m": a})
        assert text.count("-0.0") == 3
        back = js.matrix_from_json(js.loads(text)["m"])
        assert back.tobytes() == a.tobytes()

    def test_declared_dimension_checked(self):
        with pytest.raises(ValueError):
            js.colligation_from_json({"n": 3, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            js.dumps_canonical({"x": float("nan")})

    @pytest.mark.parametrize(
        "value", [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16]
    )
    def test_float_pairs_match_the_recursion(self, value):
        # a hand-built pair list takes the recursion; the complex array of
        # its values, vector and matrix, the one %-operation
        pairs = [[value, -value], [1.0, value]]
        recursion = "[" + ",".join(
            "[" + ",".join(js.dumps_canonical(x) for x in v) + "]" for v in pairs
        ) + "]"
        assert js.dumps_canonical(pairs) == recursion
        vector = np.array([complex(*v) for v in pairs])
        assert js.dumps_canonical(vector) == recursion
        assert js.dumps_canonical(vector.reshape(1, 2)) == "[" + recursion + "]"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_pair_rejected(self, bad):
        with pytest.raises(ValueError):
            js.dumps_canonical([[0.5, 0.25], [0.0, bad]])

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 3)])
    @pytest.mark.parametrize(
        "bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))]
    )
    def test_non_finite_array_entry_rejected(self, shape, bad):
        a = np.full(shape, 0.5 + 0.25j)
        a.reshape(-1)[-1] = bad
        with pytest.raises(ValueError):
            js.dumps_canonical({"x": a})

    def test_integer_pairs_take_the_recursion(self):
        doc = js.loads("[[0, 1]]")
        assert js.dumps_canonical(doc) == "[[0,1]]"
        assert js.dumps_canonical(js.matrix_from_json([doc])[0]) == "[[0,1]]"

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (1, 1), (3, 3), (2, 5), (3, 0)])
    def test_array_writer_matches_the_recursion(self, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a.reshape(-1)[::3] = -0.0  # -0.0 in both parts, written as -0.0
        pairs = np.stack([a.real, a.imag], axis=-1).tolist()
        expected = js.dumps_canonical(pairs)
        assert js.dumps_canonical(a) == expected
        assert js.dumps_canonical(js._complex_array_to_json(a)) == expected
        # a strided view is written as the array it shows
        for view in (a.T, a[::2]):
            assert js.dumps_canonical(view) == js.dumps_canonical(view.copy())
        assert js.dumps_canonical(a[::2]) == js.dumps_canonical(pairs[::2])

    def test_documents_carry_read_only_arrays(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        trace = sc.schur_algorithm_state_space(col)
        # the trace's H is the colligation's lower matrix, read-only: a
        # closed form's own matrix, with no certificate built for it
        assert trace.H is col.matrix and not trace.H.flags.writeable
        assert "_form" not in vars(col)
        doc = js.trace_to_json(trace)
        arrays = [doc["parameters"], doc["H"], *doc["denominators"]]
        arrays.append(js.colligation_to_json(col)["matrix"])
        arrays.append(js.params_to_json(trace.parameter_sequence())["params"])
        for a in arrays:
            assert a.dtype == complex and not a.flags.writeable
        # no copy of an object's own array, and no change to its flags
        assert np.shares_memory(doc["H"], trace.H)
        assert np.shares_memory(js.colligation_to_json(col)["matrix"], col.matrix)
        own = replace(trace, H=trace.H.copy())
        assert np.shares_memory(js.trace_to_json(own)["H"], own.H) and own.H.flags.writeable

    def test_empty_zero_set_is_written_as_an_empty_list(self):
        doc = js.blaschke_to_json(sc.BlaschkeProduct(1.0, ()))
        assert js.dumps_canonical(doc) == '{"c":[1,0],"zeros":[]}'


class TestInProcessRoundTrip:
    """X_from_json(X_to_json(x)) with the arrays a document carries, no text between."""

    def test_blaschke(self):
        b = sc.BlaschkeProduct(1j, (0.5, -0.25j, 0.1 + 0.2j))
        back = js.blaschke_from_json(js.blaschke_to_json(b))
        assert back == b

    def test_rational(self):
        s = sc.from_schur_parameters(sc.SchurParameterSequence((0.5, -0.3j, 1.0)))
        back = js.rational_from_json(js.rational_to_json(s))
        assert same_bits(back.num, s.num)
        assert same_bits(back.den, s.den)

    def test_params(self):
        p = sc.SchurParameterSequence((0.5, 0.3j, -0.2 + 0.1j, 1j))
        assert js.params_from_json(js.params_to_json(p)) == p

    def test_colligation(self):
        col = sc.colligation_from_schur_parameters(
            sc.SchurParameterSequence((0.5, 0.3j, 1.0))
        )
        doc = js.colligation_to_json(col)
        assert same_bits(js.colligation_from_json(doc).matrix, col.matrix)
        assert same_bits(js.matrix_from_json(doc["matrix"]), col.matrix)

    def test_partitioned(self):
        pc = sc.elementary_schur_section(0.3 + 0.1j).partitioned
        back = js.partitioned_from_json(js.partitioned_to_json(pc))
        assert (back.e1, back.e2, back.h) == (pc.e1, pc.e2, pc.h)
        assert same_bits(back.matrix, pc.matrix)

    def test_complex(self):
        z = complex(-0.0, 5e-324)
        assert same_bits([js.complex_from_json(js.complex_to_json(z))], [z])


def entrywise_matrix(doc):
    """matrix_from_json's entry-by-entry reading, as the reference."""
    return np.array([[js.complex_from_json(v) for v in row] for row in doc], dtype=complex)


def entrywise_vector(doc):
    """The entry-by-entry reading of a vector, as the reference."""
    return np.array([js.complex_from_json(v) for v in doc], dtype=complex)


VECTOR_DOCUMENTS = [
    # pairs of floats, ints and bools
    [[0.5, -0.0], [0.0, 1.0]],
    [[0, 0], [0, 1]],
    [[False, False], [True, False]],
    [[0.25, True], [0, 1.0]],
    # scalar entries, alone or next to pairs
    [0.5, 1.0],
    [0, 1],
    [0.5, [0.0, 1.0]],
    # ragged lists and pairs of another length
    [[0.5, 0.0], [1.0]],
    [[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]],
    [[0.5], [1.0]],
    [[[0.5, 0.0]], [[1.0, 0.0]]],
    [[]],
    [],
    # numeric strings, other strings and nulls
    [["0.5", "0"], ["1", "0"]],
    [["0.5", 0], [1, "0"]],
    ["0.5", "1"],
    [["x", "0"], ["1", "0"]],
    [[None, 0.0], [1.0, 0.0]],
    "01",
    {"params": 1},
    5,
    None,
    # ints beyond 2**63, on both sides of 2**64 and of -2**63
    [[2**63, 0], [1, 0]],
    [[2**63 + 1, -1], [0, 1]],
    [[2**64 - 1, 0.5], [1, 0]],
    [[2**64 + 1, 0], [1, 0]],
    [[-(2**63) - 1, 2**63], [1, 0]],
    [[10**400, 0], [1, 0]],
    [[0.5, 0], [10**400, 0]],
]


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=complex), np.asarray(expected, dtype=complex)
    return got.shape == expected.shape and np.array_equal(
        got.view(np.uint64), expected.view(np.uint64)
    )


class TestVectorFromJson:
    """One-pass reading of vectors: the entry-by-entry verdicts and values."""

    @pytest.mark.parametrize("doc", VECTOR_DOCUMENTS)
    def test_reader_matches_the_entrywise_reading(self, doc):
        try:
            expected = entrywise_vector(doc)
        except Exception as exc:  # the reference's verdict, whatever its type
            with pytest.raises(type(exc)):
                js._complex_array_from_json(doc, 1)
            return
        got = js._complex_array_from_json(doc, 1)
        assert got.dtype == complex and same_bits(got, expected)

    @pytest.mark.parametrize("doc", VECTOR_DOCUMENTS)
    @pytest.mark.parametrize("field", ["params", "zeros", "num"])
    def test_params_command_matches_the_entrywise_reading(
        self, doc, field, tmp_path, capsys
    ):
        def run(document):
            source, out = tmp_path / "in.json", tmp_path / "out.json"
            source.write_text(json.dumps(document))
            out.unlink(missing_ok=True)
            code = cli.main(["params", "--input", str(source), "--output", str(out)])
            capsys.readouterr()
            return code, out.read_text() if out.exists() else None

        extra = {"params": {}, "zeros": {"c": [1, 0]}, "num": {"den": [[1, 0]]}}[field]
        got = run({field: doc, **extra})
        try:
            values = entrywise_vector(doc)
        except Exception:
            assert got == (2, None)
            return
        # the same values as float pairs, which every reader takes in one pass
        pairs = [[v.real, v.imag] for v in values.tolist()]
        assert got == run({field: pairs, **extra})


class TestMatrixFromJson:
    """The one-pass reading accepts and rejects exactly what the entrywise one does."""

    def assert_same(self, doc):
        try:
            expected = entrywise_matrix(doc)
        except Exception as exc:  # the reference's verdict, whatever its type
            with pytest.raises(type(exc)):
                js.matrix_from_json(doc)
            return
        got = js.matrix_from_json(doc)
        assert got.dtype == complex and got.shape == expected.shape
        # bit for bit, so -0.0 and NaN count too
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_numeric_pairs_take_one_pass(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5, 5, 2)).tolist()
        values[0][0] = [-0.0, 5e-324]
        values[1][2] = [float("inf"), float("nan")]
        self.assert_same(values)
        assert js.matrix_from_json(values).flags.writeable

    def test_integer_and_boolean_pairs(self):
        self.assert_same([[[0, 1], [2, -3]], [[True, False], [2**63, 0.5]]])
        self.assert_same(js.loads("[[[0, 1]]]"))

    @pytest.mark.parametrize(
        "doc",
        [
            [[["1", "2"]]],
            [["ab"]],
            ["ab"],
            "abc",
            [[[0, 1], "xy"]],
            [[[None, 1.0]]],
        ],
    )
    def test_strings_and_nulls(self, doc):
        self.assert_same(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [[[0.5, 0.0], [0.1, 0.2]], [[0.3, 0.4]]],
            [[[0.5, 0.0], [0.1]]],
            [[[0.5, 0.0]], []],
        ],
    )
    def test_ragged_rows(self, doc):
        self.assert_same(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [[0.5, 0.25], [0.125, 1.0]],
            [[0.5, [0.0, 1.0]], [[1.0, 0.0], 2]],
            [[1]],
            [[]],
            [],
        ],
    )
    def test_scalar_entries(self, doc):
        self.assert_same(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [[[0.5, 0.0, 1.0]]],
            [[[0.5]]],
            [[[]]],
            [[[[0.5], [0.0]]]],
            [[[10**400, 0.0]]],
        ],
    )
    def test_wrong_pairs(self, doc):
        self.assert_same(doc)
