"""The Schur algorithm on the special lower Hessenberg form of a colligation.

The recursion reads the parameters peeled once off the input's lower
matrix H (``UnitaryColligation._peeled``; H is the matrix itself when
it is exactly in lower form, else the H of ``_form``, one Hessenberg
reduction with its certificate check), and that H for the trace; each
is made on first need and kept with the colligation, and a matrix in
lower form builds no certificate.  H is the Redheffer coupling of its
elementary sections, and the peel takes them off from the left
(``colligation._peel``; Gragg 1982; Ammar, Gragg & Reichel 1986): with
sections 0 .. p-1 gone, row p holds only the pair (a, b) of the peeled
H[p, p] and the band entry H[p, p+1], and

    s_p = a / |(a, b)|,    d_p = b / |(a, b)|,

after which the section's inverse acts on columns p and p+1, O(n) per
section and O(n^2) in all after the O(n^3) reduction.  The last row has
no band entry, so the terminal s_n is its head over its modulus.  Each
s_p is read from entries of size about |s_p|.  Iterate p of the
recursion is the peeled matrix's lower-right block from row and column
p on.  The recursion stops at the first |s_p| >= 1 - DISC, and the band
of H says whether the input was not minimal.  A complete run is checked
once, by its backward error max |S_rec(t) - S(t)| over at least
4(n + 1) roots of unity t: S_rec is the Moebius fold of the recovered
parameters, O(n) per point, and S the input's own function, from one
solve, one Krylov block of 16 columns of its state matrix and one row
per further block of 16 points.  The parameters themselves are
ill-conditioned: their error grows with
kappa = prod 1 / sqrt(1 - |s_p|^2) over p < n, which the trace reports
next to the backward error.  The iterates and their denominators are
rebuilt from H only when a caller asks for them.  Iterate p is the
Redheffer coupling of section p with iterate p+1, so its denominator
follows from the next one's numerator and denominator and s_p:

    det(I - z D_p) = det(I - z D_{p+1}) + conj(s_p) z N_{p+1},
    N_p = s_p det(I - z D_{p+1}) + z N_{p+1},

the coefficient step of ``rational.inverse_schur_transform``, O(n) per
section and O(n^2) for the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .colligation import (
    UnitaryColligation,
    _check_count,
    _fold,
    _peel,
    _peel_steps,
)
from .errors import InternalInconsistency, NotMinimal
from .rational import SchurParameterSequence, _couple_section
from .sampling import circle_samples

__all__ = [
    "SchurStateTrace",
    "schur_algorithm_state_space",
    "closed_form_matrix",
    "product_form_matrix",
    "colligation_from_schur_parameters",
    "readout_residual",
]


@dataclass(frozen=True)
class SchurStateTrace:
    """Parameters of one run and the lower matrix H they were peeled from.

    H is the colligation's lower matrix (``UnitaryColligation._lower``),
    shared read-only: the matrix itself when it is exactly in lower form,
    else the H of its kept certificate.  The gauge is not in the trace;
    ``reduce_to_special_lower_hessenberg(M).V`` gives it, and the band
    verdict is the colligation's own (``UnitaryColligation.minimal``).
    kappa = prod 1 / d_p over p < n, with d_p = sqrt(1 - |s_p|^2) of the
    peeled parameters (infinite when some d_p = 0); the error of the
    parameters grows with it.  backward_error is the final check's
    max |S_rec(t) - S(t)| on the unit circle, None on a partial trace.
    """

    parameters: tuple[complex, ...]
    H: np.ndarray
    complete: bool
    message: str | None
    backward_error: float | None
    kappa: float

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Iterates 0..p as read-only arrays, rebuilt from H on first access.

        Iterate p is H[p:, p:] with its first column replaced by the
        peel's carried column p (``colligation._peel_steps``), scaled so
        that its head is s_p: the lower-right block of H with sections
        0 .. p-1 peeled off.  A complete trace has n + 1 of them, a
        partial one ends with the iterate at which the recursion stopped.
        No unitarity gate is applied.
        """
        count = len(self.parameters) + (0 if self.complete else 1)
        iterates = []
        for p, (_, scale, column) in zip(range(count), _peel_steps(self.H)):
            m = self.H[p:, p:].copy()
            m[:, 0] = column * scale
            m.setflags(write=False)
            iterates.append(m)
        return tuple(iterates)

    @cached_property
    def denominators(self) -> tuple[np.ndarray, ...]:
        """det(I - z D_p) for every iterate p = 0..n, each with value 1 at 0.

        D_p is the lower-right corner H[p+1:, p+1:].  Iterate p is the
        Redheffer coupling of section p with iterate p+1, whose function
        is N_{p+1} / det(I - z D_{p+1}), so

            det(I - z D_p) = det(I - z D_{p+1}) + conj(s_p) z N_{p+1},
            N_p = s_p det(I - z D_{p+1}) + z N_{p+1},

        from N_n = s_n and det = 1 at p = n (``rational._couple_section``).
        A complete trace's parameters are the n + 1 peeled off H, so they
        are coupled as they are.  A partial trace peels all n + 1 off H
        again and has the full chain as well: the identity holds past the
        stop, where |s_p| is about 1.  Computed on first access, O(n^2),
        and then kept.
        """
        s = self.parameters if self.complete else _peel(self.H)
        num, den = np.array([s[-1]]), np.ones(1, dtype=complex)
        chain = [den]
        for s_p in reversed(s[:-1]):
            num, den = _couple_section(s_p, num, den)
            chain.append(den)
        return tuple(reversed(chain))

    def parameter_sequence(self) -> SchurParameterSequence:
        if not self.complete:
            raise NotMinimal(f"trace is partial: {self.message}")
        return SchurParameterSequence(self.parameters)


def _circle_values(col: UnitaryColligation, t: np.ndarray) -> np.ndarray:
    """S at the points t = circle_samples(count), count a multiple of 16.

    As t^count = 1, (I - tD)^-1 = (I - D^count)^-1 sum_{k<count} t^k D^k,
    so S(t) = A + t sum_k w_k t^k with w_k = B D^k y, y = (I - D^count)^-1 C:
    one solve, one Krylov block and one row per block, then one FFT.  The
    block X = [y, Dy, ..., D^15 y] gives w[:16] = B X, and block j's
    row r_j = B (D^16)^j gives w[16j + i] = r_j X[:, i], so the count
    values take one (count/16 - 1) x n by n x 16 product and the cost is
    O(n^3 log count + count n^2 / 16) in matrix products.
    """
    D = col.D
    n = len(D)
    count = len(t)
    step = np.linalg.matrix_power(D, 16)
    power = np.linalg.matrix_power(step, count // 16)
    block = np.empty((n, 16), dtype=complex)
    block[:, 0] = np.linalg.solve(np.eye(n) - power, col.C)
    for k in range(1, 16):
        block[:, k] = D @ block[:, k - 1]
    rows = np.empty((count // 16, n), dtype=complex)
    rows[0] = col.B
    for j in range(1, count // 16):
        rows[j] = rows[j - 1] @ step
    w = np.empty(count, dtype=complex)
    w[:16] = col.B @ block
    w[16:] = (rows[1:] @ block).ravel()
    # sum_k w_k t_j^k = count * ifft(w)[j] at t_j = exp(2 pi i j / count)
    return col.A + t * (count * np.fft.ifft(w))


def _backward_error(col: UnitaryColligation, params) -> float:
    """max |S_rec(t) - S(t)| over the _check_count(n) roots of unity t."""
    t = circle_samples(_check_count(col.n))
    return float(np.abs(_fold(params, t) - _circle_values(col, t)).max())


def schur_algorithm_state_space(col: UnitaryColligation) -> SchurStateTrace:
    """Run the full recursion on a unitary colligation.

    Reads s_0 .. s_n, peeled off the colligation's lower matrix by
    ``colligation._peel``, and shares that lower matrix, read-only, as
    the trace's H (the peel is made once per colligation and is the
    fold's).  A matrix exactly in lower form is its own H, so no
    certificate is built for it; any other is reduced once, on first
    need, and its kept form's H is read.  If some |s_p| with p < n
    reaches 1 - DISC, the input was not minimal or the reduction lost
    it: a partial trace is returned with the diagnostic message instead
    of an exception, so callers can report how far the recursion went.
    A complete run raises InternalInconsistency when the recovered
    parameters miss the input's function by more than BACKWARD on the
    unit circle; the exception carries the residual and the tolerance.
    """
    n, H, s, stop = col.n, col._lower, col._peeled, col._stop
    d = np.sqrt(np.maximum(1.0 - np.abs(np.array(s[:n])) ** 2, 0.0))
    product = float(np.prod(d))
    kappa = 1.0 / product if product > 0.0 else np.inf
    if stop < n:
        message = (
            f"terminated at step {stop} of {n}: |s_p| = {abs(s[stop]):.17g} "
            f"is within {tol.DISC:g} of the unit circle"
        )
        if not col.minimal:
            message += " (input colligation is not minimal)"
        return SchurStateTrace(s[:stop], H, False, message, None, kappa)
    backward = _backward_error(col, s)
    if not backward <= tol.BACKWARD:
        raise InternalInconsistency(
            f"recovered parameters miss the input's function by {backward:.3e} "
            f"on the unit circle (tolerance {tol.BACKWARD:g}, kappa {kappa:.3e})",
            backward,
            tol.BACKWARD,
        )
    return SchurStateTrace(s, H, True, None, backward, kappa)


def closed_form_matrix(p) -> np.ndarray:
    """Entrywise expression of the Hessenberg colligation in the parameters.

    p is a SchurParameterSequence, or the parameters s_0 .. s_n that one
    is built from, so invalid ones raise DiscViolation or UnitViolation.
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
    if not isinstance(p, SchurParameterSequence):
        p = SchurParameterSequence(tuple(p))
    return _closed_form(p.params)


def _closed_form(params) -> np.ndarray:
    """:func:`closed_form_matrix` of the parameters s_0 .. s_n, unchecked."""
    s = np.asarray(params, dtype=complex)
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


def readout_residual(col: UnitaryColligation) -> float:
    """sqrt(|E|_1 |E|_inf) >= |E|_2 for E = H - closed form of its sections, O(n^2).

    H is the block of the colligation's lower matrix
    (``UnitaryColligation._lower``) that its sections s_0 .. s_q
    (``_sections``) are peeled from: all of it, or its first q + 1 rows
    and columns where the lower matrix splits after row q.
    ``characteristic_function``, ``verify_spectral_identities`` and
    ``inner_sampling_report`` fold S, r and l from these sections, and
    the rest of a split lower matrix does not enter them.  Their values
    are those of the closed form, and this residual ties them to H: E
    moves them by O(|E|_2) (see ``tolerances.READOUT``).  A matrix not
    exactly in lower form is tied to its lower matrix by the
    certificate's reconstruction residual.
    """
    # the terminal put exactly on the circle, as SchurParameterSequence puts it
    *head, terminal = col._sections
    closed = _closed_form((*head, terminal / abs(terminal)))
    error = col._lower[: len(closed), : len(closed)] - closed
    return float(math.sqrt(np.linalg.norm(error, 1) * np.linalg.norm(error, np.inf)))


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


def colligation_from_schur_parameters(p) -> UnitaryColligation:
    """Build the special lower Hessenberg colligation of a parameter sequence.

    p is what :func:`closed_form_matrix` takes.  The closed form equals
    the product of embedded sections (:func:`product_form_matrix`); that
    identity is checked by the test suite, not on every call.
    """
    return UnitaryColligation._adopt(closed_form_matrix(p))
