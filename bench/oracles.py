"""Reference computations for judging schurcol's answers.

Nothing here imports schurcol: each oracle works from the workload's
inputs (parameters, zeros, input signals) with plain numpy, so a defect
in a library path cannot also hide in the check that judges it.
"""

from __future__ import annotations

import numpy as np


def random_params(rng: np.random.Generator, n: int, rmax: float = 0.95) -> np.ndarray:
    """n strictly contractive parameters followed by one unimodular value."""
    body = rmax * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    terminal = np.exp(2j * np.pi * rng.uniform())
    return np.append(body, terminal)


def random_unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with R's diagonal made positive."""
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_zeros(rng: np.random.Generator, n: int, rmax: float = 0.9, sep: float = 0.05):
    """Zeros of modulus <= rmax with pairwise gaps >= sep, plus a unimodular constant.

    The same draw as the test suite's ``random_blaschke`` generator.
    """
    zeros: list[complex] = []
    while len(zeros) < n:
        z = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= sep for w in zeros):
            zeros.append(complex(z))
    return complex(np.exp(2j * np.pi * rng.uniform())), zeros


def clustered_zeros(rng: np.random.Generator, n: int, centre: float = 0.9,
                    radius: float = 0.05, sep: float = 1e-3):
    """Zeros inside a small disc around ``centre``, pairwise at least ``sep`` apart."""
    zeros: list[complex] = []
    while len(zeros) < n:
        z = centre + radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= sep for w in zeros):
            zeros.append(complex(z))
    return complex(np.exp(2j * np.pi * rng.uniform())), zeros


def disc_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform points in the disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))


def mobius_fold(params, z) -> np.ndarray:
    """S(z) from Schur parameters: fold w -> (s + z w) / (1 + conj(s) z w) from the terminal value."""
    params = np.asarray(params, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = np.full(z.shape, params[-1], dtype=complex)
    for s in params[-2::-1]:
        zw = z * w
        w = (s + zw) / (1.0 + np.conj(s) * zw)
    return w


def zero_product(c: complex, zeros, z) -> np.ndarray:
    """c * prod (z_k - z) / (1 - z conj(z_k))."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, c, dtype=complex)
    for zk in zeros:
        out *= (zk - z) / (1.0 - z * np.conj(zk))
    return out


def transfer(matrix: np.ndarray, z) -> np.ndarray:
    """A + z B (I - z D)^{-1} C of a colligation matrix, one batched dense solve."""
    m = np.asarray(matrix, dtype=complex)
    z = np.asarray(z, dtype=complex)
    a, b, c, d = m[0, 0], m[0, 1:], m[1:, 0], m[1:, 1:]
    if len(d) == 0:
        return np.full(z.shape, a)
    lhs = np.eye(len(d)) - z[:, None, None] * d
    rhs = np.broadcast_to(c, (len(z), len(c)))[..., None]
    x = np.linalg.solve(lhs, rhs)[..., 0]
    return a + z * (x @ b)


def intertwining(m1: np.ndarray, m2: np.ndarray, v: np.ndarray) -> float:
    """max |diag(1, V) U2 - U1 diag(1, V)|."""
    g = np.eye(len(m1), dtype=complex)
    g[1:, 1:] = v
    return float(np.abs(g @ m2 - m1 @ g).max())


def markov(params, count: int, radius: float = 0.99, nodes: int = 4096) -> np.ndarray:
    """First ``count`` Taylor coefficients of S at 0 by a DFT of S on |z| = radius.

    |S| <= 1 on the disc bounds every coefficient by 1, so aliasing adds at
    most radius**nodes (about 1e-18) and dividing by radius**k for k < 256
    amplifies roundoff by at most 13.
    """
    t = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    coeffs = np.fft.fft(mobius_fold(params, t)) / nodes
    return coeffs[:count] / radius ** np.arange(count)


def energy_gap(inputs: np.ndarray, outputs: np.ndarray, final_state: np.ndarray) -> float:
    """|sum |y|^2 + |h_m|^2 - sum |u|^2| of a run started from the zero state."""
    return float(abs(
        np.sum(np.abs(outputs) ** 2) + np.sum(np.abs(final_state) ** 2)
        - np.sum(np.abs(inputs) ** 2)
    ))


def convolution_gap(h: np.ndarray, inputs: np.ndarray, outputs: np.ndarray) -> float:
    """max_k |y_k - sum_j h_j u_{k-j}| over the first len(h) outputs."""
    k = len(h)
    predicted = np.convolve(h, inputs[:k])[:k]
    return float(np.abs(outputs[:k] - predicted).max())
