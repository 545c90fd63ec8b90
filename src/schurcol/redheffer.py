"""Feedback coupling of colligations and the elementary Schur section.

A partitioned colligation has a two-channel exterior split: the matrix
acts on [phi_1; phi_2; h].  Coupling channel 2 against a second system
with matching exterior closes a feedback loop, and the matrix of the
coupled system is the Redheffer product of the two factor matrices.
The elementary section for a parameter s0 is the 3x3 unitary whose
2x2 characteristic matrix realizes the inverse Schur transform as such
a coupling; multiplying the section against a realization of omega
gives a realization of (s0 + z omega) / (1 + z conj(s0) omega) whose
first channel row has the special form [sqrt(1-|s0|^2), 0, ..., 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .colligation import UnitaryColligation, require_unitary
from .errors import (
    DimensionMismatch,
    DiscViolation,
    FeedbackSingular,
    NearPole,
)

__all__ = [
    "PartitionedColligation",
    "SchurSection",
    "redheffer_transform",
    "elementary_schur_section",
    "characteristic_matrix",
    "redheffer_product",
    "inverse_schur_colligation",
]


@dataclass(frozen=True)
class PartitionedColligation:
    """Unitary matrix on [E1; E2; H], its unitarity residual and channel dimensions."""

    matrix: np.ndarray
    e1: int
    e2: int
    h: int
    unitarity: float = field(init=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        size = self.e1 + self.e2 + self.h
        if m.shape != (size, size):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match dims ({self.e1},{self.e2},{self.h})"
            )
        object.__setattr__(self, "unitarity", require_unitary(m, "partitioned matrix"))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


# complex matrix entries per chunk of a stacked resolvent solve (1 MiB)
STACK = 2**16


def _resolvent_apply(D: np.ndarray, z, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - z D) x = rhs by LU with partial pivoting, for every point z.

    The resolvent of :func:`characteristic_matrix`: a partitioned
    colligation with several states has no scalar lower form to fold.
    NearPole at a non-finite z, or when LAPACK finds I - z D singular or
    max|x| > max|rhs| / POLE.
    A contraction D has ||(I - z D)^{-1}|| <= 1 / (1 - |z|), so inside the
    disc the rule can fire only within about sqrt(n) * POLE of the circle.

    z is a 1-D array of k points, or one point, which is solved as a stack
    of one.  rhs, a complex matrix with n rows, is shared by all the
    points; the solutions are stacked along a new first axis, which one
    point drops.  The points are solved in chunks of at most STACK matrix
    entries, each as one stacked LAPACK call, which gives every point the
    result of its own solve, so the memory of a batch is bounded at every
    degree.  NearPole names the first point that fails the rule.
    """
    points = np.atleast_1d(np.asarray(z, dtype=complex))
    # rejected before -z D, where inf * 0 would warn first
    finite = np.isfinite(points)
    if not finite.all():
        raise NearPole(f"z = {complex(points[~finite][0])!r} is not a finite point")
    n = len(D)
    x = np.empty(points.shape + rhs.shape, dtype=complex)
    bound = np.abs(rhs).max(initial=0.0) / tol.POLE
    chunk = max(STACK // max(n * n, 1), 1)
    for start in range(0, len(points), chunk):
        zc = points[start : start + chunk]
        # z D as a column of points times a row of entries: numpy rounds
        # every entry alike at every batch size, which it does not for a
        # product broadcast over three axes with a lone entry (n = 1)
        M = (-zc[:, None] * D.reshape(1, n * n)).reshape(len(zc), n, n)
        # the diagonal: every (n + 1)-th entry of each flat matrix
        M.reshape(len(zc), -1)[:, :: n + 1] += 1.0
        # rhs repeated along the stack (a view): numpy 1.x reads a
        # right-hand side with one axis fewer than M as a stack of vectors
        stacked = np.broadcast_to(rhs, (len(zc),) + rhs.shape)
        try:
            xc = np.linalg.solve(M, stacked)
        except np.linalg.LinAlgError:
            if len(zc) == 1:
                singular = complex(zc[0])
                raise NearPole(f"I - z D is singular at z = {singular!r}") from None
            # the stacked call does not say which matrix was singular:
            # solve the chunk as stacks of one, which raises at the first
            for k in range(len(zc)):
                _resolvent_apply(D, zc[k : k + 1], rhs)
            raise
        bad = ~(np.abs(xc).max(axis=(1, 2), initial=0.0) <= bound)
        if bad.any():
            raise NearPole(
                f"(I - z D)^-1 amplifies by more than {1 / tol.POLE:g} "
                f"at z = {complex(zc[bad.argmax()])!r}"
            )
        x[start : start + chunk] = xc
    return x[0] if np.ndim(z) == 0 else x


def characteristic_matrix(pc: PartitionedColligation, z) -> np.ndarray:
    """The (e1+e2) x (e1+e2) characteristic matrix of a partitioned colligation.

    z is one point, or a 1-D array of points whose matrices are stacked
    along a new first axis; all of them are one batch of resolvent solves.
    """
    e = pc.e1 + pc.e2
    A = pc.matrix[:e, :e]
    B = pc.matrix[:e, e:]
    C = pc.matrix[e:, :e]
    D = pc.matrix[e:, e:]
    w = np.asarray(z, dtype=complex)[..., None, None]
    return A + w * (B @ _resolvent_apply(D, z, C))


def redheffer_transform(
    s11: complex, s12: complex, s21: complex, s22: complex, omega: complex
) -> complex:
    """Scalar feedback form s11 + s12 * omega * (1 - s22 * omega)^{-1} * s21."""
    denom = 1.0 - s22 * omega
    if not tol.clear_of_pole(denom):
        raise FeedbackSingular(f"|1 - s22 omega| = {abs(denom):.3e}")
    return complex(s11 + s12 * omega * s21 / denom)


@dataclass(frozen=True)
class SchurSection:
    """The 3x3 unitary section of a single Schur parameter, split (1, 1, 1)."""

    s0: complex
    partitioned: PartitionedColligation


def elementary_schur_section(s0: complex) -> SchurSection:
    """Build the section [[s0, 0, d], [d, 0, -conj(s0)], [0, 1, 0]], d = sqrt(1-|s0|^2).

    Its characteristic matrix at z is
    [[s0, z d], [d, -z conj(s0)]], the coefficient matrix of the
    inverse Schur transform in feedback form.  Its one unitarity gate
    is that of :class:`PartitionedColligation` (UNITARY); by
    construction the residual is of the order of 1e-16.
    """
    s0 = complex(s0)
    if not tol.inside_disc(s0):
        raise DiscViolation(f"|s0| = {abs(s0)!r} is not strictly contractive")
    delta = math.sqrt(1.0 - abs(s0) ** 2)
    m = np.array(
        [
            [s0, 0.0, delta],
            [delta, 0.0, -s0.conjugate()],
            [0.0, 1.0, 0.0],
        ],
        dtype=complex,
    )
    return SchurSection(s0, PartitionedColligation(m, 1, 1, 1))


def redheffer_product(
    u1: PartitionedColligation, u2: UnitaryColligation
) -> UnitaryColligation:
    """Matrix of the feedback coupling through channel 2 of ``u1``.

    The result acts on [E1; H1; H2]; its state dimension is h1 + h2 and
    it is unitary whenever both factors are.  With u1 on [E1; E2; H1] and
    u2 = [[alpha, beta], [gamma, delta]], it is base + left right^T /
    (1 - a22 alpha) for

        base  = [[a11,  b1,  a12 beta],
                 [c1,   d,   c2 beta ],
                 [0,    0,   delta   ]],
        left  = [a12 alpha; c2 alpha; gamma],
        right = [a21, b2, a22 beta],

    written straight from the two matrices into one array.
    """
    if u1.e1 != 1 or u1.e2 != 1:
        raise DimensionMismatch("coupling requires scalar exterior channels")
    m1, m2 = u1.matrix, u2.matrix
    k = 1 + u1.h
    size = k + u2.n
    alpha = complex(m2[0, 0])
    a12, a22 = m1[0, 1], m1[1, 1]
    denom = 1.0 - complex(a22) * alpha
    if not tol.clear_of_pole(denom):
        raise FeedbackSingular(f"|1 - a22 alpha| = {abs(denom):.3e}")
    beta = m2[0, 1:]

    left = np.empty(size, dtype=complex)
    left[0] = a12 * alpha
    left[1:k] = m1[2:, 1] * alpha
    left[k:] = m2[1:, 0]
    right = np.empty(size, dtype=complex)
    right[0] = m1[1, 0]
    right[1:k] = m1[1, 2:]
    right[k:] = a22 * beta

    coupled = np.zeros((size, size), dtype=complex)
    coupled[0, 0] = m1[0, 0]
    coupled[0, 1:k] = m1[0, 2:]
    coupled[0, k:] = a12 * beta
    coupled[1:k, 0] = m1[2:, 0]
    coupled[1:k, 1:k] = m1[2:, 2:]
    coupled[1:k, k:] = np.outer(m1[2:, 1], beta)
    coupled[k:, k:] = m2[1:, 1:]
    coupled += np.outer(left, right) / denom
    return UnitaryColligation._adopt(coupled)


def inverse_schur_colligation(
    s0: complex, u_omega: UnitaryColligation
) -> UnitaryColligation:
    """Realization of the inverse Schur transform of u_omega's function.

    The Redheffer coupling of the elementary section of s0 with u_omega.
    The section's a22 entry is exactly 0, so the feedback denominator is
    exactly 1 and this never raises FeedbackSingular.  The channel row of
    the result is [sqrt(1 - |s0|^2), 0, ..., 0].
    """
    return redheffer_product(elementary_schur_section(s0).partitioned, u_omega)
