"""Reduction to special Hessenberg form, minimality and state equivalence.

"Special lower Hessenberg" means zero above the first superdiagonal and
nonnegative real entries on the superdiagonal itself.  A square matrix
M = [[a, B], [C, D]] is reduced to this form by a state gauge
G = diag(1, V), H = G* M G.  Row 0 of H is [a, B V], and the state rows
are V* D V, so H is in lower form exactly when B V = [|B|, 0, ..., 0]
and V* D* V is upper Hessenberg with a real nonnegative subdiagonal:
the columns of V are the orthonormal Krylov basis of D* started at
q_0 = B* / |B|.  Arnoldi builds it from matrix-vector products.  Step
k forms w = D* q_{k-1}, takes two classical Gram-Schmidt passes
against q_0 .. q_{k-1} ("twice is enough": Daniel, Gragg, Kaufman &
Stewart 1976; Giraud, Langou & Rozloznik 2005), stores |w| as the band
entry H[k, k+1] and sets q_k = w / |w|; q_0's band entry H[0, 1] is
|B|.  The cost is O(n^3) in matrix-vector products, and H is formed
once as G* M G.  The certificate's two residuals, max|G* M G - H| /
max|M| (max|M| taken once, also for the breakdown cut) and the
unitarity residual of V, are kept on it; the check compares both with
CERTIFICATE and reads nothing else, since they are all that a
reduction can get wrong.  The upper form is obtained from the
reduction of the adjoint, which is equivalent because the conjugate
of a nonnegative real is itself.

A breakdown, |w| <= STRUCT max|M| (the Krylov space is numerically
invariant, or B numerically zero), stores a band entry of exactly 0 and restarts
from the unit vector e_j farthest from the span, the one with the
least weight sum_i |q_i[j]|^2 in it, orthogonalized the same way.  Its
residual has norm at least sqrt(1 - k/n), so the restart is always
well defined.  What the form promises is stored exactly, not as its
roundoff: zeros above the band, the real nonnegative band (exactly 0
at each breakdown), and H[0, 0] = M[0, 0].  So the form is written, not
tested: no scan of H follows the reduction.

A matrix already exactly in lower form (every entry above the
superdiagonal an exact zero, the superdiagonal real with exact zero
imaginary parts and nonnegative) is its own form: the reduction returns
a copy of it with V = I, without the Arnoldi loop, which would change
it only in the roundoff of the band norms and of V.  The test is
exact, not STRUCT, so a matrix that is lower only to a tolerance takes
the full reduction.  Closed forms of parameter sequences pass it, and
so do their JSON round trips.  Such an input certifies itself in
O(n^2): with V = I both residuals are exactly 0, and no product is
formed.  The test, ``colligation._in_lower_form``, is also the first
condition for folding S from the peeled Schur sections.  An input that
is not a non-empty square matrix, or has a non-finite entry, is
rejected before either path.

The lower form is the canonical form of a unitary colligation, and one
reduction answers both questions asked of it.  A colligation keeps
its checked form (``UnitaryColligation._form`` in
:mod:`schurcol.colligation`), reduced here once on first need, with
the parameters peeled off it; the state-space recursion,
:func:`find_equivalence`, the CLI's band and minimality read it.
Minimality (``UnitaryColligation.minimal``): the colligation is
minimal exactly when no band entry is zero, read at the threshold
``max(n+1, 8) * RANK_REL`` relative to the largest entry
(``colligation.band_residual``, next to the fold that shares it).
Equivalence: with a nonzero band the form is unique (implicit Q), so
two minimal colligations of one function reduce to the same H, and
V1 V2* intertwines them.  In floating point the two forms differ by
their forward error, which grows with kappa, so an intertwining
residual within EQUIV is only a sufficient test.
"Same function" is decided as the state-space recursion decides it: the
Moebius folds of the two peeled parameter sequences agree within
BACKWARD at the recursion's check points on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotSimple,
)
from .colligation import (
    UnitaryColligation,
    _check_count,
    _fold,
    _in_lower_form,
    intertwining_residual,
    unitarity_residual,
)
from .sampling import circle_samples

__all__ = [
    "HessenbergCertificate",
    "reduce_to_special_lower_hessenberg",
    "reduce_to_special_upper_hessenberg",
    "find_equivalence",
]


@dataclass(frozen=True)
class HessenbergCertificate:
    """Reduced matrix, the gauge that produced it, the band and the residuals.

    reconstruction is max|G* M G - H| / max|M| for G = diag(1, V), taken
    on M* for the upper form, and gauge_unitarity is max|V*V - I|, the
    unitarity residual of V (which bounds |VV* - I|_2 within n).  Both
    are the quantities CERTIFICATE bounds, and the reduction has checked
    them against it.
    """

    H: np.ndarray
    V: np.ndarray
    orientation: Literal["lower", "upper"]
    band: np.ndarray
    reconstruction: float
    gauge_unitarity: float


def reduce_to_special_lower_hessenberg(M: np.ndarray) -> HessenbergCertificate:
    """Reduce M by a state gauge to special lower Hessenberg form.

    The gauge columns are the Arnoldi basis of D* from q_0 = B* / |B|,
    each step orthogonalized by two classical Gram-Schmidt passes, and
    H = G* M G with G = diag(1, V): O(n^3) in matrix-vector products
    and one matrix product.  Succeeds on every finite input: a breakdown,
    |w| <= STRUCT max|M|, stores a band entry of exactly 0 and restarts
    from the unit vector farthest from the span built so far.  Stored
    exactly: zeros above the band, the real nonnegative band of the |w|,
    and ``H[0, 0] == M[0, 0]``.  An input exactly in lower form is
    returned as a copy, with V = I, no Arnoldi step and zero residuals.
    """
    cert = _reduce_lower(np.asarray(M, dtype=complex))
    _check_certificate(cert)
    return cert


def reduce_to_special_upper_hessenberg(M: np.ndarray) -> HessenbergCertificate:
    """Adjoint trick: reduce M* to lower form with gauge V, then H = (H_lower)*."""
    lower = _reduce_lower(np.asarray(M, dtype=complex).conj().T)
    cert = replace(lower, H=lower.H.conj().T, orientation="upper")
    _check_certificate(cert)
    return cert


def _reduce_lower(M: np.ndarray) -> HessenbergCertificate:
    """The lower reduction with its residuals, unchecked; the callers check it.

    DimensionMismatch unless M is a non-empty square matrix, and
    InternalInconsistency on a non-finite entry.  An input exactly in
    lower form is returned as a copy with V = I and residuals of 0.
    """
    # M is the adjoint for the upper form, so the message names no shape
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise DimensionMismatch("expected a non-empty square matrix")
    if not np.isfinite(M).all():
        raise InternalInconsistency("cannot reduce a matrix with non-finite entries")
    if _in_lower_form(M):
        H, V = M.copy(), np.eye(M.shape[0] - 1, dtype=complex)
        recon = gauge_res = 0.0
    else:
        H, V, recon, gauge_res = _arnoldi_lower(M)
    band = np.real(np.diagonal(H, 1)).copy()
    return HessenbergCertificate(H, V, "lower", band, recon, gauge_res)


def _orthogonalize(
    w: np.ndarray, basis: np.ndarray, basis_bar: np.ndarray
) -> np.ndarray:
    """w less its projection on the span of the rows of basis, updated in place.

    Two classical Gram-Schmidt passes.  basis_bar is conj(basis), kept by
    the caller so that no pass conjugates the basis again.
    """
    for _ in range(2):
        w -= (basis_bar @ w) @ basis
    return w


def _arnoldi_lower(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The Arnoldi loop of the lower reduction: H, V and the two residuals."""
    size = M.shape[0]
    n = size - 1
    scale = max(float(np.abs(M).max()), 1e-300)
    cut = tol.STRUCT * scale
    # D* with contiguous rows: each product is one dot product per row
    D_adj = np.ascontiguousarray(M[1:, 1:].conj().T)
    # row k is q_k, the gauge's column k; basis_bar holds the conjugates
    basis = np.zeros((n, n), dtype=complex)
    basis_bar = np.zeros((n, n), dtype=complex)
    band = np.zeros(n)
    w = M[0, 1:].conj()
    for k in range(n):
        if k:
            w = _orthogonalize(D_adj @ basis[k - 1], basis[:k], basis_bar[:k])
        norm = math.sqrt(np.vdot(w, w).real)
        if norm > cut:
            band[k] = norm
        else:
            # breakdown: restart from the unit vector least in the span
            weight = (np.abs(basis[:k]) ** 2).sum(axis=0)
            w = np.zeros(n, dtype=complex)
            w[int(np.argmin(weight))] = 1.0
            w = _orthogonalize(w, basis[:k], basis_bar[:k])
            norm = math.sqrt(np.vdot(w, w).real)
        basis[k] = w / norm
        basis_bar[k] = basis[k].conj()
    G = np.eye(size, dtype=complex)
    G[1:, 1:] = basis.T
    product = G.conj().T @ M @ G
    H = np.tril(product, 1)
    H[0, 0] = M[0, 0]
    H[np.arange(n), np.arange(1, size)] = band
    V = basis.T.copy()
    recon = float(np.abs(product - H).max()) / scale
    return H, V, recon, unitarity_residual(V)


def _check_certificate(cert: HessenbergCertificate) -> None:
    """InternalInconsistency unless both residuals cert carries meet CERTIFICATE."""
    if not (
        cert.gauge_unitarity <= tol.CERTIFICATE
        and cert.reconstruction <= tol.CERTIFICATE
    ):
        raise InternalInconsistency(
            f"gauge residuals too large: unitarity {cert.gauge_unitarity:.3e}, "
            f"reconstruction {cert.reconstruction:.3e}"
        )


def find_equivalence(
    col1: UnitaryColligation, col2: UnitaryColligation
) -> np.ndarray | None:
    """State gauge V with diag(1, V) U2 = U1 diag(1, V), None if the functions differ.

    Reads both colligations' kept lower forms (each is reduced once, on
    first need); NotSimple unless both bands are nonzero.  Minimal
    realizations of different state dimensions realize different
    functions (None).  V = V1 V2* is
    returned at once when its intertwining residual is within EQUIV, a
    sufficient test.  Otherwise the functions decide, by the state-space
    recursion's own test: V is returned when the Moebius folds of the two
    peeled parameter sequences agree within BACKWARD at the
    ``_check_count(n)`` roots of unity, and None when they do not.  As
    in the fold, every peeled s_p with p < n must be inside the disc, or
    NotSimple.

    Equal means equal S to BACKWARD on the circle, not equal parameters:
    deep parameters barely move S, so at n = 256 a relative change of
    1e-3 in s_200 still gives the same function.  The forward error of
    the two forms, and with it the intertwining residual of V, grows with
    kappa = prod 1 / sqrt(1 - |s_p|^2); that residual is the caller's
    figure to report (:func:`intertwining_residual`).
    """
    if not (col1.minimal and col2.minimal):
        raise NotSimple("both colligations must be simple")
    if col1.n != col2.n:
        return None
    V = col1._form.V @ col2._form.V.conj().T
    if intertwining_residual(col1, col2, V) <= tol.EQUIV:
        return V
    if col1._stop < col1.n or col2._stop < col2.n:
        raise NotSimple(
            f"a peeled parameter is within {tol.DISC:g} of the unit circle"
        )
    t = circle_samples(_check_count(col1.n))
    gap = np.abs(_fold(col1._peeled, t) - _fold(col2._peeled, t)).max()
    return V if gap <= tol.BACKWARD else None
