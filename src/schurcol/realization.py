"""The model realization of a Blaschke product as a cascade of its zeros.

Each zero z_k with d_k = sqrt(1 - |z_k|^2) has the degree-one unitary
colligation [[z_k, d_k], [-d_k, conj(z_k)]], whose characteristic
function is (z_k - t) / (1 - t conj(z_k)).  Embedding these 2x2
sections in rows (0, k) of the identity and multiplying them couples
the factors in series through the shared channel, so the product
realizes the whole Blaschke product; scaling the channel column by c
adds the constant.  This is the kernel-space model written in the
Takenaka-Malmquist orthonormal basis: the vectors
x_w = (I - conj(w) D*)^{-1} B* taken at the zeros have the Pick matrix
1 / (1 - z_j conj(z_k)) as their Gram matrix (:func:`kernel_basis`,
kept as the reference).  The matrix is unitary by construction, needs
no separation of the zeros, and costs O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .colligation import (
    UnitaryColligation,
    characteristic_function,
    find_equivalence,
    intertwining_residual,
    is_minimal,
)
from .errors import NotPositiveDefinite, NotSimple, ZerosTooClose
from .rational import BlaschkeProduct, RationalInner, blaschke_to_rational, schur_parameters
from .schur_state import colligation_from_schur_parameters

__all__ = [
    "KernelBasis",
    "RealizationReport",
    "UniquenessReport",
    "kernel_basis",
    "model_colligation",
    "verify_realization",
    "realization_uniqueness_check",
]


@dataclass(frozen=True)
class KernelBasis:
    zeros: tuple[complex, ...]
    gram: np.ndarray
    cholesky: np.ndarray
    eigenvalues: np.ndarray


def _check_separation(zeros) -> None:
    zeros = list(zeros)
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            gap = abs(zeros[i] - zeros[j])
            if gap < tol.SEP:
                raise ZerosTooClose(
                    f"zeros {zeros[i]!r} and {zeros[j]!r} are {gap:.3e} apart "
                    f"(minimum {tol.SEP:g})"
                )


def kernel_basis(zeros) -> KernelBasis:
    """Gram matrix and Cholesky factor of the kernel functions at the zeros."""
    zeros = tuple(complex(z) for z in zeros)
    _check_separation(zeros)
    z = np.asarray(zeros, dtype=complex)
    gram = 1.0 / (1.0 - np.outer(z, np.conj(z)))
    eigenvalues = np.linalg.eigvalsh(gram) if len(z) else np.array([])
    try:
        cholesky = np.linalg.cholesky(gram) if len(z) else np.zeros((0, 0))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"Pick matrix is not positive definite (eigenvalues {eigenvalues})"
        ) from exc
    return KernelBasis(zeros, gram, cholesky, eigenvalues)


def model_colligation(b: BlaschkeProduct) -> UnitaryColligation:
    """Minimal unitary realization of a Blaschke product: a cascade of its zeros."""
    matrix = np.eye(b.degree + 1, dtype=complex)
    for k, z in enumerate(b.zeros, start=1):
        d = np.sqrt(1.0 - abs(z) ** 2)
        top, row = matrix[0].copy(), matrix[k].copy()
        matrix[0] = z * top + d * row
        matrix[k] = np.conj(z) * row - d * top
    matrix[:, 0] *= b.c
    return UnitaryColligation(matrix)


@dataclass(frozen=True)
class RealizationReport:
    max_characteristic_error: float
    samples: int


def verify_realization(
    col: UnitaryColligation, s: RationalInner, samples
) -> RealizationReport:
    """Compare S_col against ``s`` on the samples."""
    samples = np.asarray(samples, dtype=complex)
    worst = 0.0
    for z in samples:
        worst = max(worst, abs(characteristic_function(col, z) - s.evaluate(z)))
    return RealizationReport(float(worst), len(samples))


@dataclass(frozen=True)
class UniquenessReport:
    intertwining_residual: float
    state_dimension: int
    model_minimal: bool
    closed_form_minimal: bool


def realization_uniqueness_check(b: BlaschkeProduct) -> UniquenessReport:
    """Build the model and parameter realizations and intertwine them."""
    model = model_colligation(b)
    params = schur_parameters(blaschke_to_rational(b))
    closed = colligation_from_schur_parameters(params)
    model_ok = is_minimal(model)
    closed_ok = is_minimal(closed)
    V = find_equivalence(model, closed)
    if V is None:
        raise NotSimple("realizations of the same function failed to intertwine")
    residual = intertwining_residual(model, closed, V)
    return UniquenessReport(residual, model.n, model_ok, closed_ok)
