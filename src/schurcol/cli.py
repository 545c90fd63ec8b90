"""Command-line front end.

Subcommands convert between the three representations of a rational
inner function (zero set, Schur parameters, unitary colligation matrix)
and run the verification suites.  All input and output is UTF-8 JSON on
stdin/stdout unless --input/--output name files.  Diagnostics are
emitted on stderr as JSON lines {check, residual, tolerance}, also the
backward check that stops a recursion with exit 3.  A
non-finite residual (an infinite or undefined value) is written as JSON
null, both there and in the summary of `verify`, and its check counts
as failed.

Exit codes: 0 ok, 2 validation failure, 3 numerical failure; never a traceback.
"""

from __future__ import annotations

import argparse
import cmath
import functools
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
    DiscViolation,
    FeedbackSingular,
    InternalInconsistency,
    NearPole,
    NotUnitary,
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


def _band_diagnostic(cmd: _Command, col: co.UnitaryColligation) -> None:
    """Minimality: the band residual of the lower form, at most 1 when minimal."""
    if col.n >= 1:
        cmd.diag("band_minimum", co.band_residual(col._form.H), 1.0)


def _cascade_trace(blaschke) -> ss.SchurStateTrace:
    """The complete recursion trace of a zero set's cascade realization.

    The cascade is minimal by construction, so a partial trace is the
    recursion's failure (exit 3).
    """
    trace = ss.schur_algorithm_state_space(rl.model_colligation(blaschke))
    if not trace.complete:
        raise InternalInconsistency(f"recursion on the cascade {trace.message}")
    return trace


def _cmd_realize(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    route = cmd.args.route
    if "params" in doc:
        params = js.params_from_json(doc)
        if route == "model":
            # valid parameters can fold to roots within DISC of the circle:
            # the route's failure (exit 3), not the input's
            try:
                blaschke = ra.rational_to_blaschke(ra.from_schur_parameters(params))
            except DiscViolation as exc:
                raise InternalInconsistency(str(exc)) from exc
            col = rl.model_colligation(blaschke)
        else:
            col = ss.colligation_from_schur_parameters(params)
    elif "zeros" in doc:
        blaschke = js.blaschke_from_json(doc)
        if route == "model":
            col = rl.model_colligation(blaschke)
        else:
            # the fold of the peeled parameters matches S on the circle, so
            # their closed form realizes the zero set's function
            trace = _cascade_trace(blaschke)
            col = ss.colligation_from_schur_parameters(trace.parameter_sequence())
            if col.n >= 1:
                cmd.diag("backward_error", trace.backward_error, tol.BACKWARD)
    else:
        raise ValueError("input must carry either 'params' or 'zeros'")
    cmd.diag("unitarity", col.unitarity, tol.UNITARY)
    _band_diagnostic(cmd, col)
    return js.colligation_to_json(col)


def _cmd_schur(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    col = js.colligation_from_json(doc)
    trace = ss.schur_algorithm_state_space(col)
    cmd.diag("trace_complete", 0.0 if trace.complete else 1.0, 0.0)
    # an early stop on an input whose band says minimal is the recursion's
    # failure (exit 3), not the input's
    if not trace.complete and not trace.minimal:
        cmd.validation_failed = True
    if trace.complete:
        cmd.diag("backward_error", trace.backward_error, tol.BACKWARD)
    return js.trace_to_json(trace)


def _cmd_hessenberg(cmd: _Command) -> dict:
    matrix = js.colligation_matrix_from_json(_read_input(cmd.args))
    if cmd.args.orientation == "upper":
        cert = hs.reduce_to_special_upper_hessenberg(matrix)
    else:
        cert = hs.reduce_to_special_lower_hessenberg(matrix)
    if len(cert.V):
        cmd.diag("gauge_unitarity", cert.gauge_unitarity, tol.CERTIFICATE)
    cmd.diag("reconstruction", cert.reconstruction, tol.CERTIFICATE)
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
    cmd.diag("unitarity", coupled.unitarity, tol.UNITARY)
    points = disc_samples(cmd.args.samples, radius=0.9)
    omegas = co.characteristic_function(col2, points)
    values = co.characteristic_function(coupled, points)
    worst = 0.0
    blocks = rd.characteristic_matrix(pc, points)
    for s_blocks, omega, value in zip(blocks, omegas, values):
        expected = rd.redheffer_transform(
            s_blocks[0, 0], s_blocks[0, 1], s_blocks[1, 0], s_blocks[1, 1], omega
        )
        worst = max(worst, abs(value - expected))
    cmd.diag("coupling_consistency", worst, tol.COUPLING)
    return js.colligation_to_json(coupled)


def _parse_point(values: list[str]) -> complex:
    """The --z value: RE IM, or RE,IM as one value."""
    parts = " ".join(values).replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"--z takes RE IM or RE,IM, got {' '.join(values)!r}")
    z = complex(float(parts[0]), float(parts[1]))
    if not cmath.isfinite(z):
        raise ValueError(f"--z must be finite, got {' '.join(values)!r}")
    return z


def _cmd_eval(cmd: _Command) -> dict:
    doc = _read_input(cmd.args)
    z = _parse_point(cmd.args.z)
    if "matrix" in doc:
        value = co.characteristic_function(js.colligation_from_json(doc), z)
    elif "num" in doc:
        value = js.rational_from_json(doc).evaluate(z)
    else:
        raise ValueError("input must be a colligation or a rational function")
    return {"z": js.complex_to_json(z), "value": js.complex_to_json(value)}


def _cmd_verify(cmd: _Command) -> dict:
    matrix = js.colligation_matrix_from_json(_read_input(cmd.args))
    try:
        col = co.UnitaryColligation(matrix)
        residual = col.unitarity
    except NotUnitary as exc:
        col, residual = None, exc.residual
    cmd.diag("unitarity", residual, tol.UNITARY)
    summary: dict = {
        "n": matrix.shape[0] - 1,
        "unitarity_residual": _json_residual(residual),
    }
    if col is None:
        return summary
    _band_diagnostic(cmd, col)
    disc_excess, circle_dev = co.inner_sampling_report(
        col, disc_count=cmd.args.samples, circle_count=cmd.args.samples
    )
    cmd.diag("contractive_on_disc", disc_excess, tol.CONTRACTIVE)
    cmd.diag("unimodular_on_circle", circle_dev, tol.INNER)
    if col.n >= 1:
        rng = np.random.default_rng(cmd.args.seed)
        zs = random_disc_points(rng, cmd.args.samples, 0.9)
        zetas = random_disc_points(rng, cmd.args.samples, 0.9)
        spectral = co.verify_spectral_identities(col, zs, zetas)
        cmd.diag("spectral_identities", spectral.max_residual, tol.SPECTRAL)
        summary["spectral_max_residual"] = _json_residual(spectral.max_residual)
    # S, r and l off the sections describe the closed form of the peel
    readout = ss.readout_residual(col)
    if readout is not None:
        cmd.diag("readout", readout, tol.READOUT)
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
        trace = _cascade_trace(js.blaschke_from_json(doc))
        return js.params_to_json(trace.parameter_sequence())
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


def _positive_int(text: str) -> int:
    """The argparse type of --samples: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return value


# built on the first call and reused: parse_args leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="read the JSON input from this file")
    common.add_argument("--output", help="write the JSON output to this file")
    # only couple and verify sample, and only verify draws random points
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument(
        "--samples",
        type=_positive_int,
        default=50,
        help="sample count for verification checks",
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
    sub.add_parser(
        "couple", parents=[common, sampled], help="feedback-couple two colligations"
    )
    p = sub.add_parser(
        "eval", parents=[common], help="evaluate a colligation or rational function"
    )
    # one value, as in --z=-1e-3,0, can start with "-": argparse would take
    # a separate "-1e-3" or "-inf" for an option
    p.add_argument(
        "--z",
        nargs="+",
        required=True,
        metavar="Z",
        help="the point: RE IM, or RE,IM as one value such as --z=-1e-3,0",
    )
    p = sub.add_parser(
        "verify", parents=[common, sampled], help="run the verification suites"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized verification")
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
        # the recursion's failed backward check, as the line a passing one writes
        if isinstance(exc, InternalInconsistency) and exc.residual is not None:
            cmd.diag("backward_error", exc.residual, exc.tolerance)
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
