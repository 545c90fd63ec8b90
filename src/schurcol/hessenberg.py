"""Row matching by complex reflectors and reduction to special Hessenberg form.

"Special lower Hessenberg" means zero above the first superdiagonal and
nonnegative real entries on the superdiagonal itself; "HL-non-singular"
additionally requires those entries to be nonzero.  A square matrix is
reduced to this form by a state gauge diag(1, V): V is accumulated as a
product of embedded row-matching unitaries, one per row.  The upper form
is obtained from the reduction of the adjoint, which is equivalent
because the conjugate of a nonnegative real is itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import tolerances as tol
from .errors import (
    InternalInconsistency,
    NormMismatch,
    ZeroVector,
)
from .colligation import require_unitary, unitarity_residual

__all__ = [
    "HessenbergCertificate",
    "match_rows",
    "normalize_first_row",
    "reduce_to_special_lower_hessenberg",
    "reduce_to_special_upper_hessenberg",
    "is_special_lower_hessenberg",
    "is_special_upper_hessenberg",
    "is_hl_nonsingular",
    "is_hu_nonsingular",
    "hessenberg_minimality",
]


@dataclass(frozen=True)
class HessenbergCertificate:
    """Reduced matrix, the gauge that produced it, and the band entries."""

    H: np.ndarray
    V: np.ndarray
    orientation: Literal["lower", "upper"]
    band: np.ndarray


def match_rows(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Unitary V with ``b1 @ V == b2`` for equal-norm row vectors.

    Proportional rows are matched by a scalar phase; otherwise V is a
    phase times a Householder reflector, with the phase chosen to make
    ``lambda * (b1 @ b2*)`` nonnegative (lambda = 1 when the rows are
    orthogonal).
    """
    b1 = np.asarray(b1, dtype=complex).ravel()
    b2 = np.asarray(b2, dtype=complex).ravel()
    if b1.shape != b2.shape:
        raise NormMismatch(f"row lengths differ: {len(b1)} vs {len(b2)}")
    n1 = np.linalg.norm(b1)
    n2 = np.linalg.norm(b2)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroVector("row matching requires nonzero rows")
    if abs(n1 - n2) > tol.NORM * max(n1, n2):
        raise NormMismatch(f"norms {n1!r} and {n2!r} differ beyond {tol.NORM:g}")
    n = len(b1)
    inner = b1 @ b2.conj()
    lam = np.conj(inner) / abs(inner) if abs(inner) > 0.0 else 1.0 + 0.0j
    w = lam * b1 - b2
    wn2 = np.vdot(w, w).real
    if wn2 <= (1e-14 * n1) ** 2:
        return lam * np.eye(n, dtype=complex)
    return lam * (np.eye(n, dtype=complex) - 2.0 * np.outer(w.conj(), w) / wn2)


def normalize_first_row(b: np.ndarray) -> np.ndarray:
    """Unitary V with ``b @ V == [|b|, 0, ..., 0]``."""
    b = np.asarray(b, dtype=complex).ravel()
    norm = np.linalg.norm(b)
    if norm == 0.0:
        raise ZeroVector("cannot normalize a zero row")
    target = np.zeros(len(b), dtype=complex)
    target[0] = norm
    return match_rows(b, target)


def _embedded_gauge(size: int, offset: int, v: np.ndarray) -> np.ndarray:
    g = np.eye(size, dtype=complex)
    g[offset:, offset:] = v
    return g


def reduce_to_special_lower_hessenberg(M: np.ndarray) -> HessenbergCertificate:
    """Reduce M by a state gauge to special lower Hessenberg form.

    Always succeeds: a (numerically) zero row tail contributes a zero
    superdiagonal entry and an identity gauge factor.  The first row and
    column index is never touched, so ``H[0, 0] == M[0, 0]``.
    """
    M = np.asarray(M, dtype=complex)
    size = M.shape[0]
    n = size - 1
    scale = max(float(np.abs(M).max()), 1e-300)
    H = M.copy()
    V = np.eye(n, dtype=complex)
    for row in range(n):
        tail = H[row, row + 1 :]
        if np.linalg.norm(tail) <= tol.STRUCT * scale:
            continue
        step = normalize_first_row(tail)
        H = _embedded_gauge(size, row + 1, step).conj().T @ H @ _embedded_gauge(
            size, row + 1, step
        )
        V = V @ _embedded_gauge(n, row, step)
    cert = HessenbergCertificate(H, V, "lower", np.real(np.diagonal(H, 1)).copy())
    _check_certificate(cert, M)
    return cert


def reduce_to_special_upper_hessenberg(M: np.ndarray) -> HessenbergCertificate:
    """Adjoint trick: reduce M* to lower form with gauge V, then H = (H_lower)*."""
    M = np.asarray(M, dtype=complex)
    lower = reduce_to_special_lower_hessenberg(M.conj().T)
    H = lower.H.conj().T
    cert = HessenbergCertificate(
        H, lower.V, "upper", np.real(np.diagonal(H, -1)).copy()
    )
    _check_certificate(cert, M)
    return cert


def _check_certificate(cert: HessenbergCertificate, M: np.ndarray) -> None:
    scale = max(float(np.abs(M).max()), 1e-300)
    if cert.orientation == "lower":
        if not is_special_lower_hessenberg(cert.H):
            raise InternalInconsistency("reduction failed to produce the lower form")
    else:
        if not is_special_upper_hessenberg(cert.H):
            raise InternalInconsistency("reduction failed to produce the upper form")
    gauge_res = unitarity_residual(cert.V) if len(cert.V) else 0.0
    size = M.shape[0]
    G = np.eye(size, dtype=complex)
    G[1:, 1:] = cert.V
    recon = np.abs(G.conj().T @ M @ G - cert.H).max() if size else 0.0
    if not (gauge_res <= 1e-11 and recon <= 1e-11 * scale):
        raise InternalInconsistency(
            f"gauge residuals too large: unitarity {gauge_res:.3e}, "
            f"reconstruction {recon:.3e}"
        )


def _band_ok(band: np.ndarray, off_band_max: float, tolerance: float, scale: float) -> bool:
    cut = tolerance * scale
    if off_band_max > cut:
        return False
    if np.abs(band.imag).max(initial=0.0) > cut:
        return False
    return bool(band.real.min(initial=0.0) >= -cut)


def is_special_lower_hessenberg(M: np.ndarray, tolerance: float = tol.STRUCT) -> bool:
    M = np.asarray(M, dtype=complex)
    scale = max(float(np.abs(M).max()), 1e-300)
    above = np.triu(M, 2)
    return _band_ok(np.diagonal(M, 1), float(np.abs(above).max()), tolerance, scale)


def is_special_upper_hessenberg(M: np.ndarray, tolerance: float = tol.STRUCT) -> bool:
    M = np.asarray(M, dtype=complex)
    scale = max(float(np.abs(M).max()), 1e-300)
    below = np.tril(M, -2)
    return _band_ok(np.diagonal(M, -1), float(np.abs(below).max()), tolerance, scale)


def is_hl_nonsingular(M: np.ndarray, tolerance: float = tol.STRUCT) -> bool:
    M = np.asarray(M, dtype=complex)
    scale = max(float(np.abs(M).max()), 1e-300)
    band = np.abs(np.diagonal(M, 1))
    return bool(band.min(initial=np.inf) > tolerance * scale) if len(band) else True


def is_hu_nonsingular(M: np.ndarray, tolerance: float = tol.STRUCT) -> bool:
    return is_hl_nonsingular(np.asarray(M, dtype=complex).conj().T, tolerance)


def hessenberg_minimality(U: np.ndarray) -> bool:
    """Minimality of a unitary matrix read off its lower Hessenberg form.

    Uses the rank-aligned threshold ``max(n+1, 8) * 1e-10`` so the
    verdict agrees with the singular-value rank tests.
    """
    require_unitary(U, "matrix")
    cert = reduce_to_special_lower_hessenberg(U)
    return is_hl_nonsingular(cert.H, tolerance=max(len(U), 8) * tol.RANK_REL)
