"""Unitary colligations and their characteristic functions.

A colligation is an (n+1) x (n+1) complex matrix ``U = [[A, B], [C, D]]``
with a scalar exterior channel: ``A`` is 1x1, ``B`` is 1xn, ``C`` is nx1
and ``D`` is nxn.  Its characteristic function

    S(z) = A + z B (I - z D)^{-1} C

is evaluated through a linear solve; the matrix is never inverted
explicitly.  Rank decisions are scale-aware: a singular value counts
when it exceeds ``max(n+1, 8) * 1e-10 * sigma_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NearPole,
    NotSimple,
    NotUnitary,
)
from .sampling import circle_samples, disc_samples

__all__ = [
    "UnitaryColligation",
    "MinimalityReport",
    "SpectralIdentityReport",
    "unitarity_residual",
    "characteristic_function",
    "minimality_report",
    "is_minimal",
    "apply_state_gauge",
    "find_equivalence",
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


@dataclass(frozen=True)
class UnitaryColligation:
    """A verified-unitary matrix with the canonical 1/n block split."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        residual = unitarity_residual(m)
        if not residual <= tol.UNITARY:
            raise NotUnitary(
                f"unitarity residual {residual:.3e} exceeds {tol.UNITARY:g}"
            )
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
    """Solve (I - z D) x = rhs by LU with partial pivoting."""
    M = np.eye(len(D)) - z * D
    if abs(np.linalg.det(M)) < tol.POLE:
        raise NearPole(f"I - z D is singular within {tol.POLE:g} at z = {z!r}")
    return np.linalg.solve(M, rhs)


def characteristic_function(col: UnitaryColligation, z: complex) -> complex:
    """S(z) = A + z B (I - z D)^{-1} C."""
    if col.n == 0:
        return col.A
    return complex(col.A + z * (col.B @ _resolvent_apply(col.D, z, col.C)))


def _rank_threshold(n: int, sigma_max: float) -> float:
    return max(n + 1, 8) * tol.RANK_REL * sigma_max


@dataclass(frozen=True)
class MinimalityReport:
    rank_controllability: int
    rank_observability: int
    rank_simplicity: int
    singular_values: tuple[np.ndarray, np.ndarray, np.ndarray]
    n: int


def _krylov(D: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    cols = []
    cur = v
    for _ in range(n):
        cols.append(cur)
        cur = D @ cur
    return np.column_stack(cols)


def minimality_report(col: UnitaryColligation) -> MinimalityReport:
    """Ranks of the controllability, observability and simplicity matrices."""
    n = col.n
    ctrl = _krylov(col.D, col.C, n)
    obs = _krylov(col.D.conj().T, col.B.conj(), n)
    simple = np.hstack([ctrl, obs])
    svs = []
    ranks = []
    for m in (ctrl, obs, simple):
        s = np.linalg.svd(m, compute_uv=False)
        svs.append(s)
        smax = s[0] if len(s) else 0.0
        ranks.append(int(np.sum(s > _rank_threshold(n, smax))))
    return MinimalityReport(ranks[0], ranks[1], ranks[2], tuple(svs), n)


def _full_rank(col: UnitaryColligation) -> bool:
    if col.n == 0:
        return True
    report = minimality_report(col)
    ranks = {
        report.rank_controllability,
        report.rank_observability,
        report.rank_simplicity,
    }
    if len(ranks) != 1:
        raise InternalInconsistency(
            "rank of the controllability, observability and simplicity matrices "
            f"disagree for a unitary colligation: {report}"
        )
    return ranks.pop() == col.n


def is_minimal(col: UnitaryColligation) -> bool:
    # for verified-unitary colligations minimality and simplicity coincide
    return _full_rank(col)


def apply_state_gauge(col: UnitaryColligation, V: np.ndarray) -> UnitaryColligation:
    """Conjugate by diag(1, V); the characteristic function is unchanged."""
    V = np.asarray(V, dtype=complex)
    if V.shape != (col.n, col.n):
        raise DimensionMismatch(f"gauge must be {col.n}x{col.n}, got {V.shape}")
    if not unitarity_residual(V) <= tol.UNITARY:
        raise NotUnitary("gauge matrix is not unitary")
    G = np.eye(col.n + 1, dtype=complex)
    G[1:, 1:] = V
    return UnitaryColligation(G.conj().T @ col.matrix @ G)


def markov_parameters(col: UnitaryColligation, m: int) -> np.ndarray:
    """First ``m`` Taylor coefficients of S at 0: A, BC, BDC, ..."""
    out = np.empty(m, dtype=complex)
    out[0] = col.A
    v = col.C
    for k in range(1, m):
        out[k] = col.B @ v
        v = col.D @ v
    return out


def intertwining_residual(
    col1: UnitaryColligation, col2: UnitaryColligation, V: np.ndarray
) -> float:
    """max-norm of diag(1, V) U2 - U1 diag(1, V)."""
    G = np.eye(col1.n + 1, dtype=complex)
    G[1:, 1:] = V
    return float(np.abs(G @ col2.matrix - col1.matrix @ G).max())


def find_equivalence(
    col1: UnitaryColligation, col2: UnitaryColligation
) -> np.ndarray | None:
    """State gauge intertwining two simple colligations of the same function.

    The gauge is assembled by least-squares matching of the Krylov
    generating vectors ``D^k C`` and ``(D*)^l B*`` of both colligations,
    then projected onto the nearest unitary matrix (polar factor).
    Returns None when the Markov parameters disagree, i.e. when the
    characteristic functions differ.
    """
    if not is_minimal(col1) or not is_minimal(col2):
        raise NotSimple("both colligations must be simple")
    order = 2 * max(col1.n, col2.n) + 1
    m1 = markov_parameters(col1, order)
    m2 = markov_parameters(col2, order)
    if np.abs(m1 - m2).max() > tol.ROUND:
        return None
    if col1.n != col2.n:
        raise InternalInconsistency(
            "equal Markov parameters but different minimal state dimensions"
        )
    n = col1.n
    span1 = np.hstack([_krylov(col1.D, col1.C, n), _krylov(col1.D.conj().T, col1.B.conj(), n)])
    span2 = np.hstack([_krylov(col2.D, col2.C, n), _krylov(col2.D.conj().T, col2.B.conj(), n)])
    V_ls = span1 @ np.linalg.pinv(span2)
    u, _, vh = np.linalg.svd(V_ls)
    V = u @ vh
    residual = intertwining_residual(col1, col2, V)
    if residual > tol.EQUIV:
        raise InternalInconsistency(
            f"intertwining residual {residual:.3e} exceeds {tol.EQUIV:g} "
            "although the Markov parameters agree"
        )
    return V


def simulate_time_domain(
    col: UnitaryColligation,
    inputs,
    h0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the state recursion [psi_k; h_{k+1}] = U [phi_k; h_k].

    Returns the output sequence and the state trajectory ``h_0 .. h_m``
    (one more row than there are inputs).  With a unitary matrix and
    h0 = 0 the balance ``sum |psi|^2 + |h_m|^2 = sum |phi|^2`` holds to
    roundoff.
    """
    inputs = np.asarray(inputs, dtype=complex)
    n = col.n
    if h0 is None:
        h = np.zeros(n, dtype=complex)
    else:
        h = np.asarray(h0, dtype=complex)
        if h.shape != (n,):
            raise DimensionMismatch(f"initial state must have length {n}")
    outputs = np.empty(len(inputs), dtype=complex)
    states = np.empty((len(inputs) + 1, n), dtype=complex)
    states[0] = h
    for k, phi in enumerate(inputs):
        outputs[k] = col.A * phi + col.B @ h
        h = col.C * phi + col.D @ h
        states[k + 1] = h
    return outputs, states


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
        sz = characteristic_function(col, z)
        szeta = characteristic_function(col, zeta)
        xz = _resolvent_apply(col.D, z, col.C)
        xzeta = _resolvent_apply(col.D, zeta, col.C)
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
    disc_radius: float = 0.99,
    rng: np.random.Generator | None = None,
):
    """(max disc excess, max circle deviation) of |S| for this colligation."""
    if rng is None:
        zs = disc_samples(disc_count, radius=disc_radius)
    else:
        from .sampling import random_disc_points

        zs = random_disc_points(rng, disc_count, disc_radius)
    disc_excess = 0.0
    for z in zs:
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
