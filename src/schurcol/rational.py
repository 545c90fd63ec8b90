"""Scalar rational inner functions and the function-level Schur recursion.

Polynomials are dense complex coefficient vectors in ascending powers.
A rational inner function stores numerator and denominator padded to a
common length, so ``degree == len(num) - 1 == len(den) - 1``.  The
classical Schur transform and its inverse are carried out exactly on
the coefficient level: the division by ``z`` is an index shift that is
legal only after the constant term has cancelled, and the top
denominator coefficient is dropped only after it has been verified to
cancel.  Both cancellations are identities for inner input, so a
failure of either one is reported as an error rather than patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import tolerances as tol
from .errors import (
    DegreeDropFailure,
    DiscViolation,
    NearPole,
    Terminal,
    UnitViolation,
)
from .sampling import circle_samples, disc_samples

__all__ = [
    "BlaschkeProduct",
    "RationalInner",
    "SchurParameterSequence",
    "InnerSamplingReport",
    "blaschke_to_rational",
    "rational_to_blaschke",
    "schur_transform",
    "inverse_schur_transform",
    "schur_parameters",
    "from_schur_parameters",
    "is_inner_sampled",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BlaschkeProduct:
    """A unimodular constant together with zeros in the open unit disc."""

    c: complex
    zeros: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        if not tol.on_circle(self.c):
            raise UnitViolation(f"|c| = {abs(self.c)!r} is not unimodular")
        for z in self.zeros:
            if not tol.inside_disc(z):
                raise DiscViolation(f"zero {z!r} is not strictly inside the disc")

    @property
    def degree(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class RationalInner:
    """Quotient of two polynomials stored at a common length.

    The constructor pads and trims; it checks den(0) != 0 but does not
    check inner-ness, which is a sampled property (see
    :func:`is_inner_sampled`).
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=complex))
        den = np.atleast_1d(np.asarray(self.den, dtype=complex))
        size = max(len(num), len(den))
        num = np.pad(num, (0, size - len(num)))
        den = np.pad(den, (0, size - len(den)))
        # one reduction over both arrays, so that a NaN in either reaches scale
        scale = np.abs(np.concatenate((num, den))).max()
        if not scale < np.inf:
            raise ValueError("coefficients must be finite")
        if scale == 0.0:
            raise ValueError("zero rational function is not representable")
        cut = tol.TRIM * scale
        while size > 1 and abs(num[size - 1]) <= cut and abs(den[size - 1]) <= cut:
            size -= 1
        num, den = num[:size], den[:size]
        if abs(den[0]) <= cut:
            raise ValueError("denominator must not vanish at the origin")
        object.__setattr__(self, "num", _freeze(num))
        object.__setattr__(self, "den", _freeze(den))

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def evaluate(self, z: complex) -> complex:
        den_val = npoly.polyval(z, self.den)
        if not tol.clear_of_pole(den_val):
            raise NearPole(f"denominator magnitude {abs(den_val):.3e} at z = {z!r}")
        return complex(npoly.polyval(z, self.num) / den_val)


@dataclass(frozen=True)
class SchurParameterSequence:
    """Strictly contractive parameters followed by one unimodular value."""

    params: tuple[complex, ...]

    def __post_init__(self):
        params = tuple(complex(s) for s in self.params)
        if not params:
            raise ValueError("at least the terminal parameter is required")
        for s in params[:-1]:
            if not tol.inside_disc(s):
                raise DiscViolation(f"parameter {s!r} is not strictly contractive")
        if not tol.on_circle(params[-1]):
            raise UnitViolation(f"terminal parameter {params[-1]!r} is not unimodular")
        # the accepted terminal is put exactly on the circle, so that a
        # deviation within UNIT does not reach the built colligation
        terminal = params[-1] / abs(params[-1])
        object.__setattr__(self, "params", params[:-1] + (terminal,))

    @property
    def degree(self) -> int:
        return len(self.params) - 1

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, k):
        return self.params[k]


def blaschke_to_rational(b: BlaschkeProduct) -> RationalInner:
    """Expand c * prod (z_k - z) / prod (1 - z conj(z_k))."""
    num = np.array([b.c], dtype=complex)
    den = np.array([1.0], dtype=complex)
    for z in b.zeros:
        num = npoly.polymul(num, [z, -1.0])
        den = npoly.polymul(den, [1.0, -np.conj(z)])
    size = b.degree + 1
    num = np.pad(num, (0, size - len(num)))
    den = np.pad(den, (0, size - len(den)))
    return RationalInner(num, den)


def rational_to_blaschke(s: RationalInner) -> BlaschkeProduct:
    """Recover the constant and the zero set from the coefficients."""
    n = s.degree
    if n == 0:
        return BlaschkeProduct(complex(s.num[0] / s.den[0]), ())
    zeros = np.roots(s.num[::-1] / s.den[0])
    c = complex(s.num[-1] / s.den[0]) * (-1.0) ** n
    for z in zeros:
        if not tol.inside_disc(z):
            raise DiscViolation(f"numerator root {z!r} is not strictly inside the disc")
    if not tol.on_circle(c):
        raise UnitViolation(f"recovered constant {c!r} is not unimodular")
    return BlaschkeProduct(c, tuple(complex(z) for z in zeros))


def schur_transform(s: RationalInner) -> tuple[complex, RationalInner]:
    """One step of the Schur recursion.

    Returns ``s(0)`` and the function ``omega`` with
    ``omega(z) = (s(z) - s(0)) / (z (1 - conj(s(0)) s(z)))``,
    which has degree exactly one less than ``s``.
    """
    n = s.degree
    if n == 0:
        raise Terminal("constant function: the recursion has terminated")
    s0 = complex(s.num[0] / s.den[0])
    if not tol.inside_disc(s0):
        raise Terminal(
            f"|s(0)| = {abs(s0):.17g} is within {tol.DISC:g} of the unit circle"
        )
    scale = max(np.abs(s.num).max(), np.abs(s.den).max())
    shifted = s.num - s0 * s.den
    if abs(shifted[0]) > tol.TRIM * scale:
        raise DegreeDropFailure(
            f"constant term {abs(shifted[0]):.3e} did not cancel (scale {scale:.3e})"
        )
    num_w = shifted[1:]
    den_full = s.den - np.conj(s0) * s.num
    if abs(den_full[-1]) > tol.TRIM * scale:
        raise DegreeDropFailure(
            f"leading coefficient {abs(den_full[-1]):.3e} did not cancel"
        )
    omega = RationalInner(num_w, den_full[:-1])
    if omega.degree != n - 1:
        raise DegreeDropFailure(
            f"expected degree {n - 1}, trimming produced {omega.degree}"
        )
    return s0, omega


def inverse_schur_transform(s0: complex, omega: RationalInner) -> RationalInner:
    """Rebuild ``s(z) = (s0 + z omega(z)) / (1 + z conj(s0) omega(z))``."""
    s0 = complex(s0)
    if not tol.inside_disc(s0):
        raise DiscViolation(f"|s0| = {abs(s0)!r} is not strictly contractive")
    z_num = np.concatenate(([0.0], omega.num))
    z_den = np.concatenate(([0.0], omega.num))
    num = s0 * np.append(omega.den, 0.0) + z_num
    den = np.append(omega.den, 0.0) + np.conj(s0) * z_den
    return RationalInner(num, den)


def schur_parameters(s: RationalInner) -> SchurParameterSequence:
    """Iterate the Schur transform down to the terminal unimodular constant."""
    params = []
    cur = s
    while cur.degree > 0:
        s0, cur = schur_transform(cur)
        params.append(s0)
    terminal = complex(cur.num[0] / cur.den[0])
    if not tol.on_circle(terminal):
        raise UnitViolation(
            f"terminal value {terminal!r} is not unimodular: input was not inner"
        )
    params.append(terminal)
    return SchurParameterSequence(tuple(params))


def from_schur_parameters(p: SchurParameterSequence) -> RationalInner:
    """Fold inverse Schur transforms over the parameter list."""
    cur = RationalInner(np.array([p.params[-1]]), np.array([1.0]))
    for s0 in reversed(p.params[:-1]):
        cur = inverse_schur_transform(s0, cur)
    return cur


@dataclass(frozen=True)
class InnerSamplingReport:
    max_disc_excess: float
    max_circle_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_disc_excess <= self.tolerance
            and self.max_circle_deviation <= self.tolerance
        )


def is_inner_sampled(
    s: RationalInner,
    tolerance: float = tol.INNER,
    disc_count: int = 64,
    circle_count: int = 64,
) -> InnerSamplingReport:
    """Sampled check of contractivity on the disc and unimodularity on the circle."""
    disc_excess = 0.0
    for z in disc_samples(disc_count):
        try:
            disc_excess = max(disc_excess, abs(s.evaluate(z)) - 1.0)
        except NearPole:
            disc_excess = np.inf
    circle_dev = 0.0
    for t in circle_samples(circle_count):
        try:
            circle_dev = max(circle_dev, abs(abs(s.evaluate(t)) - 1.0))
        except NearPole:
            circle_dev = np.inf
    return InnerSamplingReport(float(max(disc_excess, 0.0)), float(circle_dev), tolerance)
