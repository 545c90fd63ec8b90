"""Unitary colligations and their characteristic functions.

A colligation is an (n+1) x (n+1) complex matrix ``U = [[A, B], [C, D]]``
with a scalar exterior channel: ``A`` is 1x1, ``B`` is 1xn, ``C`` is nx1
and ``D`` is nxn.  Its characteristic function

    S(z) = A + z B (I - z D)^{-1} C

is evaluated through one LU solve of (I - z D) x = C; the matrix is never
inverted explicitly and no determinant is taken.  The solve itself is the
pole test: z counts as a pole (NearPole) when LAPACK finds I - z D
singular or when max|x| exceeds max|C| / POLE.  Minimality and state
equivalence are read off the special lower Hessenberg form, in
:mod:`schurcol.hessenberg`.  The time-domain recursion runs
``BLOCK`` steps per matrix product, carrying the state by D^BLOCK, on the
same Krylov blocks that give the Markov parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tolerances as tol
from .errors import DimensionMismatch, NearPole, NotUnitary
from .sampling import circle_samples, disc_samples

__all__ = [
    "UnitaryColligation",
    "SpectralIdentityReport",
    "unitarity_residual",
    "require_unitary",
    "characteristic_function",
    "apply_state_gauge",
    "intertwining_residual",
    "simulate_time_domain",
    "markov_parameters",
    "verify_spectral_identities",
    "inner_sampling_report",
]


def unitarity_residual(matrix: np.ndarray) -> float:
    """max(|U*U - I|, |UU* - I|) in the entrywise max norm."""
    m = np.asarray(matrix, dtype=complex)
    eye = np.eye(m.shape[0])
    left = np.abs(m.conj().T @ m - eye).max()
    right = np.abs(m @ m.conj().T - eye).max()
    return float(max(left, right))


def require_unitary(matrix: np.ndarray, what: str) -> None:
    """NotUnitary unless the unitarity residual is at most UNITARY (NaN fails)."""
    residual = unitarity_residual(matrix)
    if not residual <= tol.UNITARY:
        raise NotUnitary(f"{what} is not unitary: residual {residual:.3e}")


@dataclass(frozen=True)
class UnitaryColligation:
    """A verified-unitary matrix with the canonical 1/n block split."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        require_unitary(m, "colligation matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        """State-space dimension."""
        return self.matrix.shape[0] - 1

    @property
    def A(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def B(self) -> np.ndarray:
        return self.matrix[0, 1:]

    @property
    def C(self) -> np.ndarray:
        return self.matrix[1:, 0]

    @property
    def D(self) -> np.ndarray:
        return self.matrix[1:, 1:]


def _resolvent_apply(D: np.ndarray, z: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - z D) x = rhs by LU with partial pivoting.

    NearPole when LAPACK finds I - z D singular or max|x| > max|rhs| / POLE.
    A contraction D has ||(I - z D)^{-1}|| <= 1 / (1 - |z|), so inside the
    disc the rule can fire only within about sqrt(n) * POLE of the circle.
    """
    M = np.eye(len(D)) - z * D
    try:
        x = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise NearPole(f"I - z D is singular at z = {z!r}") from None
    if not np.abs(x).max(initial=0.0) <= np.abs(rhs).max(initial=0.0) / tol.POLE:
        raise NearPole(
            f"(I - z D)^-1 amplifies by more than {1 / tol.POLE:g} at z = {z!r}"
        )
    return x


def characteristic_function(col: UnitaryColligation, z: complex) -> complex:
    """S(z) = A + z B (I - z D)^{-1} C."""
    if col.n == 0:
        return col.A
    return complex(col.A + z * (col.B @ _resolvent_apply(col.D, z, col.C)))


def apply_state_gauge(col: UnitaryColligation, V: np.ndarray) -> UnitaryColligation:
    """Conjugate by diag(1, V); the characteristic function is unchanged."""
    V = np.asarray(V, dtype=complex)
    if V.shape != (col.n, col.n):
        raise DimensionMismatch(f"gauge must be {col.n}x{col.n}, got {V.shape}")
    require_unitary(V, "gauge matrix")
    G = np.eye(col.n + 1, dtype=complex)
    G[1:, 1:] = V
    return UnitaryColligation(G.conj().T @ col.matrix @ G)


# steps per block of the Krylov kernel and of the time-domain recursion;
# a power of two, so D^BLOCK is taken by repeated squaring
BLOCK = 32


def _block_power(D: np.ndarray) -> np.ndarray:
    """D^BLOCK by repeated squaring."""
    power = D
    for _ in range(BLOCK.bit_length() - 1):
        power = power @ power
    return power


def _krylov_blocks(D: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """Columns v, Dv, D^2 v, ... in whole blocks of BLOCK, at least ``count``.

    The first block is built by D one column at a time, each later block
    is D^BLOCK times the block before it.  Every product has the same
    shape whatever ``count`` is, so no column depends on how many were
    asked for.  Columns are contiguous.
    """
    blocks = -(-count // BLOCK)
    out = np.empty((blocks * BLOCK, len(v)), dtype=complex).T
    if blocks == 0:
        return out
    out[:, 0] = v
    for t in range(1, BLOCK):
        np.matmul(D, out[:, t - 1], out=out[:, t])
    if blocks > 1:
        power = _block_power(D)
        for j in range(BLOCK, blocks * BLOCK, BLOCK):
            out[:, j : j + BLOCK] = power @ out[:, j - BLOCK : j]
    return out


def markov_parameters(col: UnitaryColligation, m: int) -> np.ndarray:
    """First ``m`` Taylor coefficients of S at 0: A, BC, BDC, ...

    B D^k C is taken one Krylov block at a time, in the products
    ``simulate_time_domain`` forms for its outputs, so an impulse
    response equals these coefficients bit for bit.
    """
    if m < 0:
        raise DimensionMismatch(f"coefficient count must be non-negative, got {m}")
    krylov = _krylov_blocks(col.D, col.C, max(m - 1, 0))
    out = np.empty(1 + krylov.shape[1], dtype=complex)
    out[0] = col.A
    for j in range(0, krylov.shape[1], BLOCK):
        out[1 + j : 1 + j + BLOCK] = col.B @ krylov[:, j : j + BLOCK]
    return out[:m]


def intertwining_residual(
    col1: UnitaryColligation, col2: UnitaryColligation, V: np.ndarray
) -> float:
    """max-norm of diag(1, V) U2 - U1 diag(1, V)."""
    G = np.eye(col1.n + 1, dtype=complex)
    G[1:, 1:] = V
    return float(np.abs(G @ col2.matrix - col1.matrix @ G).max())


def simulate_time_domain(
    col: UnitaryColligation, inputs
) -> tuple[np.ndarray, np.ndarray]:
    """Run the state recursion [psi_k; h_{k+1}] = U [phi_k; h_k] from h_0 = 0.

    Returns the output sequence and the state trajectory ``h_0 .. h_m``
    (one more row than there are inputs).  With a unitary matrix the
    balance ``sum |psi|^2 + |h_m|^2 = sum |phi|^2`` holds to roundoff.

    The recursion runs BLOCK steps at a time:
    h_k = D^BLOCK h_{k-BLOCK} + sum_{t < BLOCK} D^t C phi_{k-1-t}.  The
    window sums are one product of the Krylov block [C, DC, ...] with a
    sliding window of the input, written into the state array; each block
    of states then adds D^BLOCK times the block before it.
    """
    inputs = np.asarray(inputs, dtype=complex)
    if inputs.ndim != 1:
        raise DimensionMismatch(
            f"expected a 1-D input sequence, got shape {inputs.shape}"
        )
    m = len(inputs)
    size = -(-m // BLOCK) * BLOCK
    # column k holds h_k; the blocks start at column 1, where the impulse
    # response holds C, so they line up with the Krylov blocks
    states = np.empty((1 + size, col.n), dtype=complex).T
    states[:, 0] = 0.0
    feed = np.zeros(1 + size, dtype=complex)  # B h_k
    if size:
        krylov = _krylov_blocks(col.D, col.C, BLOCK)
        padded = np.zeros(size + BLOCK - 1, dtype=complex)
        padded[BLOCK - 1 : BLOCK - 1 + m] = inputs
        # window k holds phi_{k+1-BLOCK} .. phi_k, against D^{BLOCK-1} C .. C
        windows = sliding_window_view(padded, BLOCK).T
        np.matmul(krylov[:, ::-1], windows, out=states[:, 1:])
        power = _block_power(col.D) if size > BLOCK else None
        for j in range(1, 1 + size, BLOCK):
            block = states[:, j : j + BLOCK]
            if j > 1:
                block += power @ states[:, j - BLOCK : j]
            feed[j : j + BLOCK] = col.B @ block
    return col.A * inputs + feed[:m], states.T[: m + 1]


@dataclass(frozen=True)
class SpectralIdentityReport:
    residual_carleson: float
    residual_dual: float
    residual_difference: float
    residual_norm: float

    @property
    def max_residual(self) -> float:
        return max(
            self.residual_carleson,
            self.residual_dual,
            self.residual_difference,
            self.residual_norm,
        )


def verify_spectral_identities(
    col: UnitaryColligation, z_samples, zeta_samples
) -> SpectralIdentityReport:
    """Residuals of the four kernel identities tying S to the state blocks.

    For sample pairs (z, zeta) inside the disc:

      (1 - conj(S(zeta)) S(z)) / (1 - conj(zeta) z)
            = C* (I - conj(zeta) D*)^{-1} (I - z D)^{-1} C
      (1 - S(z) conj(S(zeta))) / (1 - z conj(zeta))
            = B (I - z D)^{-1} (I - conj(zeta) D*)^{-1} B*
      (S(zeta) - S(z)) / (zeta - z)
            = B (I - zeta D)^{-1} (I - z D)^{-1} C       (zeta != z)
      1 - |S(z)|^2 = (1 - |z|^2) |(I - z D)^{-1} C|^2
    """
    z_samples = np.asarray(z_samples, dtype=complex)
    zeta_samples = np.asarray(zeta_samples, dtype=complex)
    Dst = col.D.conj().T
    Bst = col.B.conj()
    r1 = r2 = r3 = r4 = 0.0
    for z, zeta in zip(z_samples, zeta_samples):
        xz = _resolvent_apply(col.D, z, col.C)
        xzeta = _resolvent_apply(col.D, zeta, col.C)
        sz = complex(col.A + z * (col.B @ xz))
        szeta = complex(col.A + zeta * (col.B @ xzeta))
        ystar = _resolvent_apply(Dst, np.conj(zeta), Bst)
        lhs1 = (1.0 - np.conj(szeta) * sz) / (1.0 - np.conj(zeta) * z)
        r1 = max(r1, abs(lhs1 - np.vdot(xzeta, xz)))
        lhs2 = (1.0 - sz * np.conj(szeta)) / (1.0 - z * np.conj(zeta))
        r2 = max(r2, abs(lhs2 - col.B @ _resolvent_apply(col.D, z, ystar)))
        if abs(zeta - z) > 1e-8:
            lhs3 = (szeta - sz) / (zeta - z)
            r3 = max(r3, abs(lhs3 - col.B @ _resolvent_apply(col.D, zeta, xz)))
        lhs4 = 1.0 - abs(sz) ** 2
        r4 = max(r4, abs(lhs4 - (1.0 - abs(z) ** 2) * np.vdot(xz, xz).real))
    return SpectralIdentityReport(float(r1), float(r2), float(r3), float(r4))


def inner_sampling_report(
    col: UnitaryColligation,
    disc_count: int = 100,
    circle_count: int = 64,
):
    """(max disc excess, max circle deviation) of |S| for this colligation."""
    disc_excess = 0.0
    for z in disc_samples(disc_count, radius=0.99):
        disc_excess = max(disc_excess, abs(characteristic_function(col, z)) - 1.0)
    circle_dev = 0.0
    for t in circle_samples(circle_count):
        try:
            circle_dev = max(
                circle_dev, abs(abs(characteristic_function(col, t)) - 1.0)
            )
        except NearPole:
            circle_dev = np.inf
    return float(max(disc_excess, 0.0)), float(circle_dev)
