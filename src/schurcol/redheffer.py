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

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .colligation import (
    UnitaryColligation,
    _resolvent_apply,
    apply_state_gauge,
    characteristic_function,
    require_unitary,
    unitarity_residual,
)
from .errors import (
    DimensionMismatch,
    DiscViolation,
    FeedbackSingular,
    NotUnitary,
    UnitViolation,
)
from .sampling import disc_samples

__all__ = [
    "PartitionedColligation",
    "SchurSection",
    "GaugeFamilyReport",
    "redheffer_transform",
    "elementary_schur_section",
    "characteristic_matrix",
    "redheffer_product",
    "inverse_schur_colligation",
    "verify_gauge_family",
]


@dataclass(frozen=True)
class PartitionedColligation:
    """Unitary matrix on [E1; E2; H] with stored channel dimensions."""

    matrix: np.ndarray
    e1: int
    e2: int
    h: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        size = self.e1 + self.e2 + self.h
        if m.shape != (size, size):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match dims ({self.e1},{self.e2},{self.h})"
            )
        require_unitary(m, "partitioned matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    # block views, computed rather than stored
    @property
    def a11(self):
        return self.matrix[: self.e1, : self.e1]

    @property
    def a12(self):
        return self.matrix[: self.e1, self.e1 : self.e1 + self.e2]

    @property
    def b1(self):
        return self.matrix[: self.e1, self.e1 + self.e2 :]

    @property
    def a21(self):
        return self.matrix[self.e1 : self.e1 + self.e2, : self.e1]

    @property
    def a22(self):
        return self.matrix[self.e1 : self.e1 + self.e2, self.e1 : self.e1 + self.e2]

    @property
    def b2(self):
        return self.matrix[self.e1 : self.e1 + self.e2, self.e1 + self.e2 :]

    @property
    def c1(self):
        return self.matrix[self.e1 + self.e2 :, : self.e1]

    @property
    def c2(self):
        return self.matrix[self.e1 + self.e2 :, self.e1 : self.e1 + self.e2]

    @property
    def d(self):
        return self.matrix[self.e1 + self.e2 :, self.e1 + self.e2 :]


def characteristic_matrix(pc: PartitionedColligation, z: complex) -> np.ndarray:
    """The (e1+e2) x (e1+e2) characteristic matrix of a partitioned colligation."""
    e = pc.e1 + pc.e2
    A = pc.matrix[:e, :e]
    B = pc.matrix[:e, e:]
    C = pc.matrix[e:, :e]
    if pc.h == 0:
        return A.copy()
    return A + z * (B @ _resolvent_apply(pc.d, z, C))


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
    """The 3x3 unitary section of a single Schur parameter."""

    s0: complex
    matrix: np.ndarray

    @property
    def partitioned(self) -> PartitionedColligation:
        return PartitionedColligation(self.matrix, 1, 1, 1)


def elementary_schur_section(s0: complex) -> SchurSection:
    """Build the section [[s0, 0, d], [d, 0, -conj(s0)], [0, 1, 0]], d = sqrt(1-|s0|^2).

    Its characteristic matrix at z is
    [[s0, z d], [d, -z conj(s0)]], the coefficient matrix of the
    inverse Schur transform in feedback form.
    """
    s0 = complex(s0)
    if not tol.inside_disc(s0):
        raise DiscViolation(f"|s0| = {abs(s0)!r} is not strictly contractive")
    delta = np.sqrt(1.0 - abs(s0) ** 2)
    m = np.array(
        [
            [s0, 0.0, delta],
            [delta, 0.0, -np.conj(s0)],
            [0.0, 1.0, 0.0],
        ],
        dtype=complex,
    )
    residual = unitarity_residual(m)
    if not residual <= 1e-14:
        raise NotUnitary(f"section unitarity residual {residual:.3e}")
    return SchurSection(s0, m)


def redheffer_product(
    u1: PartitionedColligation, u2: UnitaryColligation
) -> UnitaryColligation:
    """Matrix of the feedback coupling through channel 2 of ``u1``.

    The result acts on [E1; H1; H2]; its state dimension is h1 + h2 and
    it is unitary whenever both factors are.
    """
    if u1.e1 != 1 or u1.e2 != 1:
        raise DimensionMismatch("coupling requires scalar exterior channels")
    h1, h2 = u1.h, u2.n
    alpha = u2.A
    beta = u2.B
    gamma = u2.C
    delta = u2.D
    a22 = complex(u1.a22[0, 0])
    denom = 1.0 - a22 * alpha
    if not tol.clear_of_pole(denom):
        raise FeedbackSingular(f"|1 - a22 alpha| = {abs(denom):.3e}")

    size = 1 + h1 + h2
    base = np.zeros((size, size), dtype=complex)
    base[0, 0] = u1.a11[0, 0]
    base[0, 1 : 1 + h1] = u1.b1[0]
    base[0, 1 + h1 :] = u1.a12[0, 0] * beta
    base[1 : 1 + h1, 0] = u1.c1[:, 0]
    base[1 : 1 + h1, 1 : 1 + h1] = u1.d
    base[1 : 1 + h1, 1 + h1 :] = np.outer(u1.c2[:, 0], beta)
    base[1 + h1 :, 1 + h1 :] = delta

    left = np.concatenate(
        [[u1.a12[0, 0] * alpha], u1.c2[:, 0] * alpha, gamma]
    )
    right = np.concatenate([[u1.a21[0, 0]], u1.b2[0], u1.a22[0, 0] * beta])
    return UnitaryColligation(base + np.outer(left, right) / denom)


def inverse_schur_colligation(
    s0: complex, u_omega: UnitaryColligation
) -> UnitaryColligation:
    """Realization of the inverse Schur transform of u_omega's function.

    Pure product form: embed u_omega below a fixed first coordinate and
    multiply by the elementary rotation in coordinates (0, 1).  No
    feedback inverse is involved, so this never raises on singularity.
    The channel row of the result is [sqrt(1 - |s0|^2), 0, ..., 0].
    """
    s0 = complex(s0)
    if not tol.inside_disc(s0):
        raise DiscViolation(f"|s0| = {abs(s0)!r} is not strictly contractive")
    size = u_omega.n + 2
    delta0 = np.sqrt(1.0 - abs(s0) ** 2)
    embed = np.eye(size, dtype=complex)
    embed[1:, 1:] = u_omega.matrix
    rot = np.eye(size, dtype=complex)
    rot[0, 0] = s0
    rot[0, 1] = delta0
    rot[1, 0] = delta0
    rot[1, 1] = -np.conj(s0)
    return UnitaryColligation(embed @ rot)


@dataclass(frozen=True)
class GaugeFamilyReport:
    max_matrix_residual: float
    max_characteristic_residual: float
    channel_row_residual: float

    @property
    def passed(self) -> bool:
        return self.max_matrix_residual <= 1e-12 and self.channel_row_residual <= 1e-12


def verify_gauge_family(
    s0: complex,
    u_omega: UnitaryColligation,
    epsilon: complex,
    v: np.ndarray,
) -> GaugeFamilyReport:
    """Check the residual gauge freedom of the inverse-Schur realization.

    The family member for (epsilon, v) built blockwise from the factors
    must coincide with diag(1, V*) U diag(1, V) for V = diag(epsilon, v),
    and its channel row must be [epsilon sqrt(1-|s0|^2), 0, ..., 0].
    """
    epsilon = complex(epsilon)
    if not tol.on_circle(epsilon):
        raise UnitViolation(f"epsilon = {epsilon!r} is not unimodular")
    v = np.asarray(v, dtype=complex)
    m = u_omega.n
    if v.shape != (m, m):
        raise DimensionMismatch(f"inner gauge must be {m}x{m}, got {v.shape}")
    require_unitary(v, "inner gauge")

    base = inverse_schur_colligation(s0, u_omega)
    n = base.n
    V = np.zeros((n, n), dtype=complex)
    V[0, 0] = epsilon
    V[1:, 1:] = v
    gauged = apply_state_gauge(base, V)

    # blockwise member of the family, written out from the factor gauges
    alpha, beta, gamma, delta = u_omega.A, u_omega.B, u_omega.C, u_omega.D
    delta0 = np.sqrt(1.0 - abs(complex(s0)) ** 2)
    member = np.zeros((n + 1, n + 1), dtype=complex)
    member[0, 0] = s0
    member[0, 1] = epsilon * delta0
    member[1, 0] = alpha * np.conj(epsilon) * delta0
    member[1, 1] = -alpha * np.conj(s0)
    member[1, 2:] = np.conj(epsilon) * (beta @ v)
    member[2:, 0] = (v.conj().T @ gamma) * delta0
    member[2:, 1] = -(v.conj().T @ gamma) * epsilon * np.conj(s0)
    member[2:, 2:] = v.conj().T @ delta @ v

    matrix_residual = float(np.abs(member - gauged.matrix).max())
    row = gauged.matrix[0, 1:]
    expected_row = np.zeros(n, dtype=complex)
    expected_row[0] = epsilon * delta0
    row_residual = float(np.abs(row - expected_row).max())
    char_residual = 0.0
    for z in disc_samples(20, radius=0.9):
        char_residual = max(
            char_residual,
            abs(
                characteristic_function(gauged, z)
                - characteristic_function(base, z)
            ),
        )
    return GaugeFamilyReport(matrix_residual, float(char_residual), row_residual)
