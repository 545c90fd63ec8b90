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

A Blaschke product is expanded by one ``np.convolve`` per linear factor,
z_k - z in the numerator and 1 - conj(z_k) z in the denominator, so both
come out at the common length.  One step kernel on coefficient arrays,
``_schur_step``, carries the transform with its checks and the
normalization of RationalInner (``_normalized``); ``schur_transform``
wraps one step in RationalInner, and ``schur_parameters`` loops over it
without building a RationalInner per step.
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

__all__ = [
    "BlaschkeProduct",
    "RationalInner",
    "SchurParameterSequence",
    "blaschke_to_rational",
    "rational_to_blaschke",
    "schur_transform",
    "inverse_schur_transform",
    "schur_parameters",
    "from_schur_parameters",
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


def _normalized(num, den) -> tuple[np.ndarray, np.ndarray]:
    """num and den at a common length, trimmed and checked.

    The shorter one is zero-padded, and trailing coefficients at most TRIM
    of the largest are dropped while both arrays have one.  ValueError for a
    non-finite coefficient, the zero function and den(0) within the cut.
    """
    num = np.atleast_1d(np.asarray(num, dtype=complex))
    den = np.atleast_1d(np.asarray(den, dtype=complex))
    size = max(len(num), len(den))
    if len(num) != len(den):
        padded = np.zeros((2, size), dtype=complex)
        padded[0, : len(num)] = num
        padded[1, : len(den)] = den
        num, den = padded
    # one reduction over both arrays, so that a NaN in either reaches scale
    scale = np.abs(np.concatenate((num, den))).max()
    if not scale < np.inf:
        raise ValueError("coefficients must be finite")
    if scale == 0.0:
        raise ValueError("zero rational function is not representable")
    cut = tol.TRIM * scale
    while size > 1 and abs(num[size - 1]) <= cut and abs(den[size - 1]) <= cut:
        size -= 1
    if abs(den[0]) <= cut:
        raise ValueError("denominator must not vanish at the origin")
    return num[:size], den[:size]


@dataclass(frozen=True)
class RationalInner:
    """Quotient of two polynomials stored at a common length.

    The constructor pads and trims; it checks den(0) != 0 but does not
    check inner-ness.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num, den = _normalized(self.num, self.den)
        object.__setattr__(self, "num", _freeze(num))
        object.__setattr__(self, "den", _freeze(den))

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def evaluate(self, z):
        """s(z): a complex for one point, an array of their shape for an array.

        NearPole names the first point whose denominator is not clear of a pole.
        """
        if np.ndim(z) == 0:
            den_val = npoly.polyval(z, self.den)
            if not tol.clear_of_pole(den_val):
                raise NearPole(f"denominator magnitude {abs(den_val):.3e} at z = {z!r}")
            return complex(npoly.polyval(z, self.num) / den_val)
        z = np.asarray(z, dtype=complex)
        den_val = npoly.polyval(z, self.den)
        clear = tol.clear_of_pole(den_val)
        if not clear.all():
            k = np.unravel_index(np.argmin(clear), clear.shape)
            raise NearPole(
                f"denominator magnitude {abs(den_val[k]):.3e} at z = {complex(z[k])!r}"
            )
        return npoly.polyval(z, self.num) / den_val


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
    """Expand c * prod (z_k - z) / prod (1 - z conj(z_k)).

    DegreeDropFailure when den(0) = 1 falls within RationalInner's trim
    cut of the expanded coefficients, as for 64 zeros clustered at 0.9.
    """
    num = np.array([b.c], dtype=complex)
    den = np.array([1.0], dtype=complex)
    for z in b.zeros:
        num = np.convolve(num, [z, -1.0])
        den = np.convolve(den, [1.0, -np.conj(z)])
    _require_origin_clear(num, den)
    return RationalInner(num, den)


def _require_origin_clear(num: np.ndarray, den: np.ndarray) -> None:
    """DegreeDropFailure unless den(0) is above the trim cut of num and den.

    The cut is TRIM times their largest coefficient, the one
    RationalInner applies; below it double precision no longer holds
    the function at degree len(num) - 1.
    """
    cut = tol.TRIM * np.abs(np.concatenate((num, den))).max()
    if abs(den[0]) <= cut:
        raise DegreeDropFailure(
            f"den(0) = {abs(den[0]):.3e} is within the trim cut {cut:.3e} "
            f"of the degree-{len(num) - 1} coefficients"
        )


def rational_to_blaschke(s: RationalInner) -> BlaschkeProduct:
    """Recover the constant and the zero set from the coefficients."""
    n = s.degree
    if n == 0:
        return BlaschkeProduct(complex(s.num[0] / s.den[0]), ())
    zeros = np.roots(s.num[::-1] / s.den[0])
    c = complex(s.num[-1] / s.den[0]) * (-1.0) ** n
    # BlaschkeProduct checks the disc rule on the roots and the circle rule on c
    return BlaschkeProduct(c, tuple(complex(z) for z in zeros))


def schur_transform(s: RationalInner) -> tuple[complex, RationalInner]:
    """One step of the Schur recursion.

    Returns ``s(0)`` and the function ``omega`` with
    ``omega(z) = (s(z) - s(0)) / (z (1 - conj(s(0)) s(z)))``,
    which has degree exactly one less than ``s``.
    """
    s0, num, den = _schur_step(s.num, s.den)
    return s0, RationalInner(num, den)


def _schur_step(
    num: np.ndarray, den: np.ndarray
) -> tuple[complex, np.ndarray, np.ndarray]:
    """(s(0), num, den) of omega from the normalized coefficients of s.

    The coefficient kernel of :func:`schur_transform`, without a
    RationalInner on either side; its output is normalized as
    RationalInner would store it.
    """
    n = len(num) - 1
    if n == 0:
        raise Terminal("constant function: the recursion has terminated")
    s0 = complex(num[0] / den[0])
    if not tol.inside_disc(s0):
        raise Terminal(
            f"|s(0)| = {abs(s0):.17g} is within {tol.DISC:g} of the unit circle"
        )
    scale = max(np.abs(num).max(), np.abs(den).max())
    shifted = num - s0 * den
    if abs(shifted[0]) > tol.TRIM * scale:
        raise DegreeDropFailure(
            f"constant term {abs(shifted[0]):.3e} did not cancel (scale {scale:.3e})"
        )
    den_full = den - np.conj(s0) * num
    if abs(den_full[-1]) > tol.TRIM * scale:
        raise DegreeDropFailure(
            f"leading coefficient {abs(den_full[-1]):.3e} did not cancel"
        )
    num_w, den_w = _normalized(shifted[1:], den_full[:-1])
    if len(num_w) != n:
        raise DegreeDropFailure(
            f"expected degree {n - 1}, trimming produced {len(num_w) - 1}"
        )
    return s0, num_w, den_w


def _couple_section(s: complex, num: np.ndarray, den: np.ndarray):
    """Coefficients of the coupling of the section of s with num / den.

    Returns (s den + z num, den + conj(s) z num), one degree higher.  With
    num / den the function of iterate p+1 of the Schur recursion and
    den = det(I - z D_{p+1}), the second is det(I - z D_p) of iterate p,
    with no division, trimming or disc test: O(n) per section.
    """
    z_num = np.zeros(len(num) + 1, dtype=complex)
    z_num[1:] = num
    den_z = np.zeros(len(den) + 1, dtype=complex)
    den_z[:-1] = den
    return s * den_z + z_num, den_z + s.conjugate() * z_num


def inverse_schur_transform(s0: complex, omega: RationalInner) -> RationalInner:
    """Rebuild ``s(z) = (s0 + z omega(z)) / (1 + z conj(s0) omega(z))``.

    The result has degree exactly one more than omega, with den(0) that of
    omega.  DegreeDropFailure when RationalInner's relative trim would
    take either from the coupled coefficients: their largest has grown
    past den(0) / TRIM (about 7e16 for 64 zeros clustered at 0.9), so
    double precision no longer holds the function at that degree.
    """
    s0 = complex(s0)
    if not tol.inside_disc(s0):
        raise DiscViolation(f"|s0| = {abs(s0)!r} is not strictly contractive")
    num, den = _couple_section(s0, omega.num, omega.den)
    _require_origin_clear(num, den)
    s = RationalInner(num, den)
    if s.degree != omega.degree + 1:
        raise DegreeDropFailure(
            f"expected degree {omega.degree + 1}, trimming produced {s.degree}"
        )
    return s


def schur_parameters(s: RationalInner) -> SchurParameterSequence:
    """Iterate the Schur transform down to the terminal unimodular constant."""
    params = []
    num, den = s.num, s.den
    while len(num) > 1:
        s0, num, den = _schur_step(num, den)
        params.append(s0)
    # SchurParameterSequence checks that the terminal value is unimodular
    params.append(complex(num[0] / den[0]))
    return SchurParameterSequence(tuple(params))


def from_schur_parameters(p: SchurParameterSequence) -> RationalInner:
    """Fold inverse Schur transforms over the parameter list."""
    cur = RationalInner(np.array([p.params[-1]]), np.array([1.0]))
    for s0 in reversed(p.params[:-1]):
        cur = inverse_schur_transform(s0, cur)
    return cur
