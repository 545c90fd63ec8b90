"""The Schur algorithm carried out entirely on colligation matrices.

After a one-time reduction of the input to special lower Hessenberg
form, the channel row of every iterate is automatically in the special
form [sqrt(1 - |s_p|^2), 0, ..., 0]: deleting the first row and column
of a special lower Hessenberg matrix preserves the form, so no
re-normalization is needed between steps.  Each step reads off the
parameter s_p = A and shrinks the matrix by one, dividing the first
column by sqrt(1 - |s_p|^2).  Minimality is read off the nonzero band
of the same reduction, and the denominators of all iterates sit in the
nested lower-right corners of the first iterate's principal block; they
are computed only when a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .colligation import UnitaryColligation, apply_state_gauge
from .errors import (
    InternalInconsistency,
    NotMinimal,
    NotNormalized,
    Terminal,
)
from .hessenberg import (
    is_hl_nonsingular,
    normalize_first_row,
    reduce_to_special_lower_hessenberg,
)
from .rational import SchurParameterSequence

__all__ = [
    "SchurStateTrace",
    "normalize_B_row",
    "schur_step",
    "schur_algorithm_state_space",
    "closed_form_matrix",
    "product_form_matrix",
    "colligation_from_schur_parameters",
]


def normalize_B_row(col: UnitaryColligation) -> UnitaryColligation:
    """Gauge-equivalent colligation whose channel row is [sqrt(1-|A|^2), 0, ...]."""
    if not tol.inside_disc(col.A):
        raise Terminal(
            f"|A| = {abs(col.A):.17g} is within {tol.DISC:g} of the unit circle; "
            "the channel row is degenerate"
        )
    return apply_state_gauge(col, normalize_first_row(col.B))


def _check_special_row(col: UnitaryColligation) -> None:
    scale = max(float(np.abs(col.matrix).max()), 1e-300)
    b = col.B
    head_dev = max(abs(b[0].imag), max(-b[0].real, 0.0))
    tail_dev = float(np.abs(b[1:]).max()) if col.n > 1 else 0.0
    if max(head_dev, tail_dev) > tol.STRUCT * scale:
        raise NotNormalized(
            f"channel row deviates from special form by {max(head_dev, tail_dev):.3e}"
        )


def schur_step(col: UnitaryColligation) -> tuple[complex, UnitaryColligation]:
    """Extract s_p = A and the smaller colligation of the transformed function.

    Requires the channel row in special form.  The next matrix is
    [C / sqrt(1-|s_p|^2) | D[:, 1:]]; for a 1x1 principal block the
    remaining scalar C / sqrt(1-|s_p|^2) is the terminal parameter.
    """
    if col.n < 1:
        raise Terminal("colligation is already the terminal constant")
    _check_special_row(col)
    s_p = col.A
    if not tol.inside_disc(s_p):
        raise Terminal(
            f"|s_p| = {abs(s_p):.17g} is within {tol.DISC:g} of the unit circle"
        )
    # sqrt(1 - |s_p|^2) equals |C| by unitarity; scaling by the measured
    # norm keeps the new first column at unit length even after roundoff
    # has accumulated over a deep recursion
    delta = float(np.linalg.norm(col.C))
    first_col = col.C / delta

    # the subtraction form -D[:,0] s_p + C delta and the division form C / delta
    # coincide through the orthogonality C conj(s_p) + D[:,0] delta = 0
    ortho = np.abs(col.C * np.conj(s_p) + col.D[:, 0] * delta).max()
    subtraction = -col.D[:, 0] * s_p + col.C * delta
    agreement = np.abs(subtraction - first_col).max()
    if max(ortho, agreement) > tol.ROUND:
        raise InternalInconsistency(
            f"closed forms of the step disagree: orthogonality {ortho:.3e}, "
            f"column {agreement:.3e}"
        )

    next_matrix = np.column_stack([first_col, col.D[:, 1:]])
    return s_p, UnitaryColligation(next_matrix)


@dataclass(frozen=True)
class SchurStateTrace:
    """Parameters, shrinking matrices and denominator polynomials of one run."""

    parameters: tuple[complex, ...]
    matrices: tuple[UnitaryColligation, ...]
    complete: bool
    message: str | None
    gauge: np.ndarray

    @cached_property
    def denominators(self) -> tuple[np.ndarray, ...]:
        """det(I - z D_p) for every iterate p = 0..n, each with value 1 at 0.

        D_p is the lower-right corner of the first iterate's principal
        block, so partial traces have the full chain as well.  Computed
        on first access (n+1 determinants per level) and then kept.
        """
        return _denominator_chain_from_first(self.matrices[0])

    def parameter_sequence(self) -> SchurParameterSequence:
        if not self.complete:
            raise NotMinimal(f"trace is partial: {self.message}")
        return SchurParameterSequence(self.parameters)


def schur_algorithm_state_space(col: UnitaryColligation) -> SchurStateTrace:
    """Run the full recursion on a unitary colligation.

    One Hessenberg reduction up front, then n parameter extractions.
    If an iterate turns unimodular early the input was not minimal; a
    partial trace is returned with the diagnostic message instead of an
    exception, so callers can report how far the recursion went.
    """
    n = col.n
    cert = reduce_to_special_lower_hessenberg(col.matrix)
    cur = UnitaryColligation(cert.H)
    matrices = [cur]
    params: list[complex] = []
    complete = True
    message = None
    for p in range(n):
        try:
            s_p, cur = schur_step(cur)
        except Terminal as exc:
            complete = False
            message = f"terminated at step {p} of {n}: {exc}"
            # the rank-aligned threshold of hessenberg_minimality
            if not is_hl_nonsingular(cert.H, tolerance=max(n + 1, 8) * tol.RANK_REL):
                message += " (input colligation is not minimal)"
            break
        params.append(s_p)
        matrices.append(cur)
    if complete:
        params.append(matrices[-1].A)
    return SchurStateTrace(tuple(params), tuple(matrices), complete, message, cert.V)


def closed_form_matrix(p: SchurParameterSequence) -> np.ndarray:
    """Entrywise expression of the Hessenberg colligation in the parameters.

    With d_j = sqrt(1 - |s_j|^2):

        u[0, 0]   = s_0
        u[j, 0]   = s_j d_{j-1} ... d_0
        u[j, k]   = -s_j d_{j-1} ... d_k conj(s_{k-1})   (1 <= k <= j)
        u[j, j+1] = d_j
        u[j, k]   = 0                                    (k > j + 1)

    The products d_k ... d_{j-1} of row j are row j-1's times d_{j-1},
    taken by one cumulative product down the columns: O(n^2), and no
    quotient of products, which would underflow for small d_j.
    """
    s = np.asarray(p.params, dtype=complex)
    n = len(s) - 1
    d = np.sqrt(np.maximum(1.0 - np.abs(s) ** 2, 0.0))
    # factors[j, k] = d_{j-1} below the diagonal and 1 elsewhere, so the
    # cumulative product down column k gives d_k ... d_{j-1} at row j > k
    below = np.tri(n + 1, k=-1, dtype=bool)
    factors = np.where(below, np.concatenate(([1.0], d[:-1]))[:, None], 1.0)
    runs = np.cumprod(factors, axis=0)
    right = np.concatenate(([1.0], -np.conj(s[:-1])))
    u = np.tril(s[:, None] * runs * right)
    u[np.arange(n), np.arange(1, n + 1)] = d[:-1]
    return u


def product_form_matrix(p: SchurParameterSequence) -> np.ndarray:
    """Right-to-left product of embedded 2x2 sections, terminal phase last.

    Section q mixes only columns q and q+1, so each is applied as that
    two-column update: O(n) per section, O(n^2) in all.
    """
    s = np.asarray(p.params, dtype=complex)
    n = len(s) - 1
    d = np.sqrt(np.maximum(1.0 - np.abs(s) ** 2, 0.0))
    u = np.eye(n + 1, dtype=complex)
    u[n, n] = s[n]
    for q in range(n - 1, -1, -1):
        section = np.array([[s[q], d[q]], [d[q], -np.conj(s[q])]])
        u[:, q : q + 2] = u[:, q : q + 2] @ section
    return u


def colligation_from_schur_parameters(
    p: SchurParameterSequence,
) -> UnitaryColligation:
    """Build the special lower Hessenberg colligation of a parameter sequence.

    The closed form equals the product of embedded sections
    (:func:`product_form_matrix`); that identity is checked by the test
    suite, not on every call.
    """
    if not isinstance(p, SchurParameterSequence):
        p = SchurParameterSequence(tuple(p))
    return UnitaryColligation(closed_form_matrix(p))


def _det_polynomial(D: np.ndarray) -> np.ndarray:
    """Coefficients of det(I - z D), ascending, via roots of unity and inverse DFT."""
    size = len(D)
    if size == 0:
        return np.array([1.0 + 0.0j])
    m = size + 1
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    eye = np.eye(size)
    values = np.array([np.linalg.det(eye - z * D) for z in nodes])
    # values[j] = sum_k a_k exp(+2 pi i jk / m), so the forward FFT inverts it
    coeffs = np.fft.fft(values) / m
    return coeffs / coeffs[0]


def _denominator_chain_from_first(first: UnitaryColligation) -> tuple[np.ndarray, ...]:
    D0 = first.D
    n = first.n
    return tuple(_det_polynomial(D0[p:, p:]) for p in range(n + 1))
