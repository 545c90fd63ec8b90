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
1 / (1 - z_j conj(z_k)) as their Gram matrix.  The matrix is unitary by
construction, needs no separation of the zeros, and costs O(n^2).
"""

from __future__ import annotations

import numpy as np

from .colligation import UnitaryColligation
from .rational import BlaschkeProduct

__all__ = ["model_colligation"]


def model_colligation(b: BlaschkeProduct) -> UnitaryColligation:
    """Minimal unitary realization of a Blaschke product: a cascade of its zeros."""
    matrix = np.eye(b.degree + 1, dtype=complex)
    for k, z in enumerate(b.zeros, start=1):
        d = np.sqrt(1.0 - abs(z) ** 2)
        top, row = matrix[0].copy(), matrix[k].copy()
        matrix[0] = z * top + d * row
        matrix[k] = np.conj(z) * row - d * top
    matrix[:, 0] *= b.c
    return UnitaryColligation._adopt(matrix)
