"""End-to-end command-line checks via subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import schurcol as sc
from schurcol import serialize as js


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
        out = run_cli(
            ["realize", "--route", "closed-form"],
            '{"c":[1,0],"zeros":[[0.3,0],[0,-0.4]]}',
        )
        assert out.returncode == 0, out.stderr
        checks = [json.loads(line) for line in out.stderr.splitlines()]
        by_name = {c["check"]: c for c in checks}
        assert by_name["cross_route_equivalence"]["residual"] <= 1e-9

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

    def test_eval_colligation(self):
        out = run_cli(
            ["eval", "--z", "0.25", "0"],
            '{"n":1,"matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}',
        )
        assert out.returncode == 0, out.stderr
        assert_allclose(json.loads(out.stdout)["value"], [0.25, 0.0])

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
        # D = 1 puts a pole of the resolvent at t = 1 on the circle, where
        # the circle check reports an infinite deviation
        out = run_cli(["verify"], '{"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]]}')
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        checks = {c["check"]: c for c in map(json.loads, out.stderr.splitlines())}
        assert checks["unimodular_on_circle"]["residual"] is None
        assert json.loads(out.stdout)["inner_circle_deviation"] is None

    def test_verify_nan_matrix_fails(self):
        out = run_cli(["verify"], '{"matrix":[[NaN]]}')
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert json.loads(out.stdout)["unitarity_residual"] is None


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


class TestParams:
    def test_function_to_parameters(self):
        out = run_cli(["params"], '{"num":[[0.5,0],[-1,0]],"den":[[1,0],[-0.5,0]]}')
        assert out.returncode == 0, out.stderr
        assert_allclose(
            json.loads(out.stdout)["params"], [[0.5, 0.0], [-1.0, 0.0]], atol=1e-14
        )

    def test_parameters_to_function(self):
        out = run_cli(["params"], '{"params":[[0.5,0],[-1,0]]}')
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert_allclose(doc["num"], [[0.5, 0.0], [-1.0, 0.0]], atol=1e-14)
        assert_allclose(doc["den"], [[1.0, 0.0], [-0.5, 0.0]], atol=1e-14)


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

    def test_declared_dimension_checked(self):
        with pytest.raises(ValueError):
            js.colligation_from_json({"n": 3, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            js.dumps_canonical({"x": float("nan")})
