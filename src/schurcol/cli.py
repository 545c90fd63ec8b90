"""Command-line front end.

Subcommands convert between the three representations of a rational
inner function (zero set, Schur parameters, unitary colligation matrix)
and run the verification suites.  All input and output is UTF-8 JSON on
stdin/stdout unless --input/--output name files.  Diagnostics are
emitted on stderr as JSON lines {check, residual, tolerance}.  A
non-finite residual (an infinite or undefined value) is written as JSON
null, both there and in the summary of `verify`, and its check counts
as failed.

Exit codes: 0 ok, 2 validation failure, 3 numerical failure; never a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import colligation as co
from . import hessenberg as hs
from . import rational as ra
from . import realization as rl
from . import redheffer as rd
from . import schur_state as ss
from . import serialize as js
from . import tolerances as tol
from .errors import (
    DegreeDropFailure,
    FeedbackSingular,
    InternalInconsistency,
    NearPole,
    SchurColError,
    Terminal,
)
from .sampling import disc_samples, random_disc_points

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    NearPole,
    FeedbackSingular,
    DegreeDropFailure,
    Terminal,
    InternalInconsistency,
)


def _json_residual(x) -> float | None:
    """A residual as written to JSON: null where it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


class _Command:
    """Collects the payload and the diagnostics of one invocation."""

    def __init__(self, args):
        self.args = args
        self.diagnostics: list[dict] = []
        self.failed = False
        self.validation_failed = False

    def diag(self, check: str, residual: float, tolerance: float) -> None:
        residual, tolerance = float(residual), float(tolerance)
        self.diagnostics.append(
            {
                "check": check,
                "residual": _json_residual(residual),
                "tolerance": tolerance,
            }
        )
        if not (residual <= tolerance):
            self.failed = True


def _read_input(args) -> dict:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    doc = js.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


def _write_output(args, doc) -> None:
    text = js.dumps_canonical(doc) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rank_diagnostics(cmd: _Command, col: co.UnitaryColligation) -> None:
    if col.n >= 1:
        report = co.minimality_report(col)
        cmd.diag("rank_controllability", col.n - report.rank_controllability, 0.0)
        cmd.diag("rank_observability", col.n - report.rank_observability, 0.0)
        cmd.diag("rank_simplicity", col.n - report.rank_simplicity, 0.0)


def _cmd_realize(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    route = cmd.args.route
    if "params" in doc:
        params = js.params_from_json(doc)
        if route == "model":
            blaschke = ra.rational_to_blaschke(ra.from_schur_parameters(params))
            col = rl.model_colligation(blaschke)
        else:
            col = ss.colligation_from_schur_parameters(params)
    elif "zeros" in doc:
        blaschke = js.blaschke_from_json(doc)
        params = ra.schur_parameters(ra.blaschke_to_rational(blaschke))
        closed = ss.colligation_from_schur_parameters(params)
        model = rl.model_colligation(blaschke)
        col = model if route == "model" else closed
        if closed.n >= 1:
            gauge = co.find_equivalence(model, closed)
            residual = (
                np.inf
                if gauge is None
                else co.intertwining_residual(model, closed, gauge)
            )
            cmd.diag("cross_route_equivalence", residual, tol.EQUIV)
    else:
        raise ValueError("input must carry either 'params' or 'zeros'")
    cmd.diag("unitarity", co.unitarity_residual(col.matrix), tol.UNITARY)
    _rank_diagnostics(cmd, col)
    return js.colligation_to_json(col)


def _cmd_schur(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    col = js.colligation_from_json(doc)
    trace = ss.schur_algorithm_state_space(col)
    cmd.diag("trace_complete", 0.0 if trace.complete else 1.0, 0.0)
    if not trace.complete:
        cmd.validation_failed = True
    if trace.complete and col.n >= 1:
        roundtrip = ss.colligation_from_schur_parameters(trace.parameter_sequence())
        gauge = co.find_equivalence(roundtrip, col)
        residual = (
            np.inf if gauge is None else co.intertwining_residual(roundtrip, col, gauge)
        )
        cmd.diag("parameter_roundtrip", residual, tol.ROUND)
    return js.trace_to_json(trace)


def _cmd_hessenberg(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    matrix = js.matrix_from_json(doc["matrix"])
    if cmd.args.orientation == "upper":
        cert = hs.reduce_to_special_upper_hessenberg(matrix)
        off_band = np.abs(np.tril(cert.H, -2)).max() if len(matrix) > 2 else 0.0
    else:
        cert = hs.reduce_to_special_lower_hessenberg(matrix)
        off_band = np.abs(np.triu(cert.H, 2)).max() if len(matrix) > 2 else 0.0
    scale = max(float(np.abs(matrix).max()), 1e-300)
    cmd.diag("structural_zeros", float(off_band), tol.STRUCT * scale)
    if len(cert.V):
        cmd.diag("gauge_unitarity", co.unitarity_residual(cert.V), tol.UNITARY)
    size = matrix.shape[0]
    G = np.eye(size, dtype=complex)
    G[1:, 1:] = cert.V
    recon = float(np.abs(G.conj().T @ matrix @ G - cert.H).max())
    cmd.diag("reconstruction", recon, 1e-11 * scale)
    return js.certificate_to_json(cert)


def _cmd_couple(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    first = doc["first"]
    if "s0" in first:
        section = rd.elementary_schur_section(js.complex_from_json(first["s0"]))
        pc = section.partitioned
    else:
        pc = js.partitioned_from_json(first)
    col2 = js.colligation_from_json(doc["second"])
    coupled = rd.redheffer_product(pc, col2)
    cmd.diag("unitarity", co.unitarity_residual(coupled.matrix), tol.UNITARY)
    worst = 0.0
    for z in disc_samples(cmd.args.samples, radius=0.9):
        s_blocks = rd.characteristic_matrix(pc, z)
        omega = co.characteristic_function(col2, z)
        expected = rd.redheffer_transform(
            s_blocks[0, 0], s_blocks[0, 1], s_blocks[1, 0], s_blocks[1, 1], omega
        )
        worst = max(worst, abs(co.characteristic_function(coupled, z) - expected))
    cmd.diag("coupling_consistency", worst, 1e-10)
    return js.colligation_to_json(coupled)


def _cmd_eval(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    z = complex(cmd.args.z[0], cmd.args.z[1])
    if "matrix" in doc:
        value = co.characteristic_function(js.colligation_from_json(doc), z)
    elif "num" in doc:
        value = js.rational_from_json(doc).evaluate(z)
    else:
        raise ValueError("input must be a colligation or a rational function")
    return {"z": js.complex_to_json(z), "value": js.complex_to_json(value)}


def _cmd_verify(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    matrix = js.matrix_from_json(doc["matrix"])
    residual = co.unitarity_residual(matrix)
    cmd.diag("unitarity", residual, tol.UNITARY)
    summary: dict = {
        "n": matrix.shape[0] - 1,
        "unitarity_residual": _json_residual(residual),
    }
    if not residual <= tol.UNITARY:
        return summary
    col = co.UnitaryColligation(matrix)
    _rank_diagnostics(cmd, col)
    disc_excess, circle_dev = co.inner_sampling_report(
        col, disc_count=cmd.args.samples, circle_count=cmd.args.samples
    )
    cmd.diag("contractive_on_disc", disc_excess, 1e-10)
    cmd.diag("unimodular_on_circle", circle_dev, tol.INNER)
    if col.n >= 1:
        rng = np.random.default_rng(cmd.args.seed)
        zs = random_disc_points(rng, cmd.args.samples, 0.9)
        zetas = random_disc_points(rng, cmd.args.samples, 0.9)
        spectral = co.verify_spectral_identities(col, zs, zetas)
        cmd.diag("spectral_identities", spectral.max_residual, 1e-10)
        summary["spectral_max_residual"] = _json_residual(spectral.max_residual)
    summary["inner_disc_excess"] = _json_residual(disc_excess)
    summary["inner_circle_deviation"] = _json_residual(circle_dev)
    return summary


def _cmd_params(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    if "params" in doc:
        return js.rational_to_json(ra.from_schur_parameters(js.params_from_json(doc)))
    if "num" in doc:
        return js.params_to_json(ra.schur_parameters(js.rational_from_json(doc)))
    if "zeros" in doc:
        return js.params_to_json(
            ra.schur_parameters(ra.blaschke_to_rational(js.blaschke_from_json(doc)))
        )
    raise ValueError("input must carry 'params', 'num'/'den' or 'zeros'")


_HANDLERS = {
    "realize": _cmd_realize,
    "schur": _cmd_schur,
    "hessenberg": _cmd_hessenberg,
    "couple": _cmd_couple,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "params": _cmd_params,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="read the JSON input from this file")
    common.add_argument("--output", help="write the JSON output to this file")
    common.add_argument(
        "--samples", type=int, default=50, help="sample count for verification checks"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized verification"
    )

    parser = argparse.ArgumentParser(
        prog="schurcol",
        description="Blaschke products, Schur parameters and unitary colligations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "realize",
        parents=[common],
        help="zeros or parameters -> colligation matrix",
    )
    p.add_argument(
        "--route",
        choices=["model", "closed-form"],
        default="closed-form",
        help="realization route",
    )
    sub.add_parser(
        "schur",
        parents=[common],
        help="colligation -> state-space Schur recursion trace",
    )
    p = sub.add_parser(
        "hessenberg", parents=[common], help="reduce a matrix to special Hessenberg form"
    )
    p.add_argument(
        "--orientation", choices=["lower", "upper"], default="lower"
    )
    sub.add_parser("couple", parents=[common], help="feedback-couple two colligations")
    p = sub.add_parser(
        "eval", parents=[common], help="evaluate a colligation or rational function"
    )
    p.add_argument("--z", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    sub.add_parser("verify", parents=[common], help="run the verification suites")
    sub.add_parser(
        "params", parents=[common], help="function-level conversions to/from parameters"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = _Command(args)
    try:
        _write_output(args, _HANDLERS[args.command](cmd))
    except _NUMERICAL_ERRORS as exc:
        _emit_diagnostics(cmd)
        print(f"schurcol {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # a document of the wrong shape raises KeyError, TypeError or OverflowError
    except (SchurColError, ValueError, KeyError, TypeError, OverflowError, OSError) as exc:
        _emit_diagnostics(cmd)
        print(f"schurcol {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit_diagnostics(cmd)
    if cmd.validation_failed:
        return EXIT_VALIDATION
    return EXIT_NUMERICAL if cmd.failed else EXIT_OK


def _emit_diagnostics(cmd: _Command) -> None:
    for entry in cmd.diagnostics:
        print(js.dumps_canonical(entry), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
