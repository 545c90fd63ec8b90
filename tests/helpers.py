"""Shared generators and oracles for the test suite."""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

import schurcol as sc


def random_unitary(rng, size):
    """Haar-ish unitary from QR of a complex Gaussian with positive R diagonal."""
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_params(rng, n, rmax=0.95):
    """n strictly contractive parameters followed by one unimodular value."""
    body = rmax * np.sqrt(rng.uniform(size=n)) * np.exp(
        2j * np.pi * rng.uniform(size=n)
    )
    terminal = np.exp(2j * np.pi * rng.uniform())
    return sc.SchurParameterSequence(tuple(body) + (terminal,))


def random_blaschke(rng, n, rmax=0.9, sep=0.05):
    """Blaschke product with zeros of moduli <= rmax and pairwise gaps >= sep."""
    zeros = []
    while len(zeros) < n:
        z = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= sep for w in zeros):
            zeros.append(complex(z))
    c = np.exp(2j * np.pi * rng.uniform())
    return sc.BlaschkeProduct(complex(c), tuple(zeros))


def random_colligation(rng, n, rmax=0.95):
    """A minimal unitary colligation with state dimension n."""
    return sc.colligation_from_schur_parameters(random_params(rng, n, rmax=rmax))


def taylor_coefficients(fn, count, radius=0.5, samples=256):
    """Taylor coefficients at 0 by the Cauchy integral over a small circle."""
    nodes = np.exp(2j * np.pi * np.arange(samples) / samples)
    values = np.array([fn(radius * t) for t in nodes])
    hat = np.fft.fft(values) / samples
    return hat[:count] / radius ** np.arange(count)


def reference_reflector(b):
    """Unitary V with ``b @ V == [|b|, 0, ..., 0]``: a phase times a reflector.

    The phase lam makes ``lam * b[0]`` nonnegative (lam = 1 when b[0] = 0),
    and the reflector is I - 2 conj(v) v^T for v = w / |w|,
    w = lam b - [|b|, 0, ..., 0].  The head of w is formed as
    -|b[1:]|^2 / (|b[0]| + |b|), which equals |b[0]| - |b| without its
    cancellation.  A row with |w| <= 1e-14 |b| gets the phase alone.
    """
    b = np.asarray(b, dtype=complex).ravel()
    norm = np.linalg.norm(b)
    head = abs(b[0])
    lam = np.conj(b[0]) / head if head > 0.0 else 1.0 + 0.0j
    rest = np.vdot(b[1:], b[1:]).real
    w0 = -rest / (head + norm)
    wn = np.sqrt(w0 * w0 + rest)
    eye = np.eye(len(b), dtype=complex)
    if wn <= 1e-14 * norm:
        return lam * eye
    w = lam * b
    w[0] = w0
    v = w / wn
    return lam * (eye - 2.0 * np.outer(v.conj(), v))


def reference_reduction(M):
    """(H, V) of the lower Hessenberg reduction by dense embedded gauges, O(n^4).

    Row by row, :func:`reference_reflector` of the row's tail is embedded
    in an identity and multiplied in as full matrices.  Kept as an
    independent reference for the in-place reduction.
    """
    M = np.asarray(M, dtype=complex)
    size = M.shape[0]
    n = size - 1
    scale = max(float(np.abs(M).max()), 1e-300)

    def embedded(dim, offset, v):
        g = np.eye(dim, dtype=complex)
        g[offset:, offset:] = v
        return g

    H = M.copy()
    V = np.eye(n, dtype=complex)
    for row in range(n):
        tail = H[row, row + 1 :]
        if np.linalg.norm(tail) <= sc.tolerances.STRUCT * scale:
            continue
        step = reference_reflector(tail)
        g = embedded(size, row + 1, step)
        H = g.conj().T @ H @ g
        V = V @ embedded(n, row, step)
    return H, V


def reference_expansion(b):
    """RationalInner of a Blaschke product by numpy.polynomial's polymul.

    polymul trims exact trailing zeros, so the denominator of a product
    with a zero at 0 comes out short and is padded with np.pad.  Kept as
    an independent reference for the linear-factor expansion.
    """
    num = np.array([b.c], dtype=complex)
    den = np.array([1.0], dtype=complex)
    for z in b.zeros:
        num = npoly.polymul(num, [z, -1.0])
        den = npoly.polymul(den, [1.0, -np.conj(z)])
    size = b.degree + 1
    num = np.pad(num, (0, size - len(num)))
    den = np.pad(den, (0, size - len(den)))
    return sc.RationalInner(num, den)


def reference_redheffer_product(u1, u2):
    """The feedback coupling through channel 2 of u1 by blocks, as a colligation.

    A zero base matrix gets the blocks of both factors, and the feedback
    term is np.outer(left, right) / (1 - a22 alpha) on top.  Kept as the
    reference for the bits of ``redheffer_product``, which writes the same
    sums from the factors' matrices into one array.
    """
    h1, h2 = u1.h, u2.n
    alpha, beta, gamma, delta = u2.A, u2.B, u2.C, u2.D
    m1 = u1.matrix
    a11, a12, b1 = m1[0, 0], m1[0, 1], m1[0, 2:]
    a21, a22, b2 = m1[1, 0], m1[1, 1], m1[1, 2:]
    c1, c2, d = m1[2:, 0], m1[2:, 1], m1[2:, 2:]
    denom = 1.0 - complex(a22) * alpha
    if not sc.tolerances.clear_of_pole(denom):
        raise sc.FeedbackSingular(f"|1 - a22 alpha| = {abs(denom):.3e}")
    size = 1 + h1 + h2
    base = np.zeros((size, size), dtype=complex)
    base[0, 0] = a11
    base[0, 1 : 1 + h1] = b1
    base[0, 1 + h1 :] = a12 * beta
    base[1 : 1 + h1, 0] = c1
    base[1 : 1 + h1, 1 : 1 + h1] = d
    base[1 : 1 + h1, 1 + h1 :] = np.outer(c2, beta)
    base[1 + h1 :, 1 + h1 :] = delta
    left = np.concatenate([[a12 * alpha], c2 * alpha, gamma])
    right = np.concatenate([[a21], b2, a22 * beta])
    return sc.UnitaryColligation(base + np.outer(left, right) / denom)


def gauge_family_member(s0, u_omega, epsilon, v):
    """The inverse-Schur realization's gauge-family member for (epsilon, v).

    Written out blockwise from s0, the blocks alpha, beta, gamma, delta of
    u_omega and the factor gauges: the paper's claim is that it equals
    diag(1, V*) U diag(1, V) for U = inverse_schur_colligation(s0, u_omega)
    and V = diag(epsilon, v), with channel row
    [epsilon sqrt(1 - |s0|^2), 0, ..., 0].
    """
    alpha, beta, gamma, delta = u_omega.A, u_omega.B, u_omega.C, u_omega.D
    n = u_omega.n + 1
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
    return member


def transform_fold(s):
    """Schur parameters of s by one ``schur_transform`` per step.

    Kept as the reference for ``schur_parameters``, which runs the same
    step on coefficient arrays without a RationalInner per step.
    """
    params = []
    while s.degree > 0:
        s0, s = sc.schur_transform(s)
        params.append(s0)
    params.append(complex(s.num[0] / s.den[0]))
    return sc.SchurParameterSequence(tuple(params))


class NotNormalized(Exception):
    """The channel row of a colligation is not in the special form [a, b, 0, ...]."""


def reference_schur_step(col):
    """(s_0, next colligation) of one Schur step on a colligation with n >= 1.

    The channel row must be in special form, [a, b, 0, ...] with b >= 0,
    to STRUCT times max |entry|; NotNormalized otherwise.  The elementary
    section of that row is peeled with the expressions of
    ``colligation._peel_steps``: s_0 = a / |(a, b)|, d_0 = b / |(a, b)|,
    and the next matrix is [d_0 C - s_0 D[:, 0] | D[:, 1:]], passed
    through the public constructor's unitarity gate.  Kept as the
    reference for criterion 6, the step that inverts
    ``inverse_schur_colligation``; the recursion peels without a gate.
    """
    m, b = col.matrix, col.B
    deviation = max(abs(b[0].imag), -b[0].real, float(np.abs(b[1:]).max(initial=0.0)))
    if deviation > sc.tolerances.STRUCT * max(float(np.abs(m).max()), 1e-300):
        raise NotNormalized(f"channel row is off special form by {deviation:.3e}")
    a, band = complex(m[0, 0]), float(b[0].real)
    scale = 1.0 / math.hypot(a.real, a.imag, band)
    s0 = a * scale
    first = (band * scale) * m[1:, 0] - s0 * col.D[:, 0]
    return s0, sc.UnitaryColligation(np.column_stack([first, col.D[:, 1:]]))


def reference_uniqueness_residual(b):
    """Intertwining residual of the gauge between two minimal realizations of b.

    The cascade ``model_colligation(b)`` and the closed form of b's Schur
    parameters realize the same function, so ``find_equivalence`` must
    find the state gauge between them; the residual grows with kappa.
    Kept as the reference for the uniqueness of the minimal realization
    (criterion 8).
    """
    model = sc.model_colligation(b)
    params = sc.schur_parameters(sc.blaschke_to_rational(b))
    closed = sc.colligation_from_schur_parameters(params)
    V = sc.find_equivalence(model, closed)
    assert V is not None, "two realizations of one function are not equivalent"
    return sc.intertwining_residual(model, closed, V)


def cluster(count, radius, turn=0.0):
    """count zeros on a circle of radius 0.015 about `radius`, turned by 2 pi turn."""
    return tuple(
        (radius + 0.015 * np.exp(2j * np.pi * k / count)) * np.exp(2j * np.pi * turn)
        for k in range(count)
    )


def blaschke_values(zeros, t):
    """The product of (a - t) / (1 - t conj(a)) over the zeros a, at the points t."""
    t = np.asarray(t, dtype=complex)
    return np.prod([(a - t) / (1.0 - t * np.conj(a)) for a in zeros], axis=0)


def half_step_samples(count):
    """exp(2 pi i (j + 1/2) / count), j < count: midway between the roots of unity."""
    return np.exp(2j * np.pi * (np.arange(count) + 0.5) / count)


def half_step_values(col, count):
    """S of a colligation at half_step_samples(count), count a multiple of 16.

    S(w t) is the function of the colligation with B and D multiplied by
    w, so with w = exp(i pi / count) it is read off the roots of unity by
    ``schur_state._circle_values``: one solve, one Krylov block and one
    row per block of 16 points.
    """
    turned = np.array(col.matrix)
    turned[:, 1:] *= np.exp(1j * np.pi / count)
    return sc.schur_state._circle_values(
        sc.UnitaryColligation(turned), sc.sampling.circle_samples(count)
    )


def reference_circle_values(col, t):
    """S at t = circle_samples(count) from the whole Krylov sequence, count a multiple of 16.

    The full-sequence form of ``schur_state._circle_values``: the n x count
    matrix [y, Dy, ..., D^(count-1) y], y = (I - D^count)^-1 C, built in
    blocks of 16 columns, each D^16 times the one before, O(count n^2),
    and S(t) = A + t sum_k t^k B D^k y by one FFT.  The kernel takes the
    same values from the first block and one row B (D^16)^j per block.
    """
    D = col.D
    n = len(D)
    count = len(t)
    step = np.linalg.matrix_power(D, 16)
    power = np.linalg.matrix_power(step, count // 16)
    krylov = np.empty((n, count), dtype=complex)
    krylov[:, 0] = np.linalg.solve(np.eye(n) - power, col.C)
    for k in range(1, 16):
        krylov[:, k] = D @ krylov[:, k - 1]
    for start in range(16, count, 16):
        krylov[:, start : start + 16] = step @ krylov[:, start - 16 : start]
    return col.A + t * (count * np.fft.ifft(col.B @ krylov))


def mobius_fold(params, z):
    """S(z) from Schur parameters by the fold w -> (s + z w) / (1 + conj(s) z w)."""
    z = np.asarray(z, dtype=complex)
    w = np.full(z.shape, params[-1], dtype=complex)
    for s in params[-2::-1]:
        w = (s + z * w) / (1.0 + np.conj(s) * z * w)
    return w


def reference_det_polynomial(D):
    """Coefficients of det(I - z D), ascending, 1 at 0: LU determinants at roots of unity.

    The determinant is taken at the len(D) + 1 roots of unity and read
    back by an inverse DFT, O(n^4).  Kept as an independent reference
    for the denominator chain, which the trace couples section by
    section from the peeled parameters, det(I - z D_p) =
    det(I - z D_{p+1}) + conj(s_p) z N_{p+1}, in O(n^2).
    """
    size = len(D)
    if size == 0:
        return np.array([1.0 + 0.0j])
    m = size + 1
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    eye = np.eye(size)
    values = np.array([np.linalg.det(eye - z * D) for z in nodes])
    # values[j] = sum_k a_k exp(+2 pi i jk / m), so the forward FFT inverts it
    coeffs = np.fft.fft(values) / m
    return coeffs / coeffs[0]


def reference_simulation(col, inputs):
    """(outputs, states) of [psi_k; h_{k+1}] = U [phi_k; h_k], one step at a time.

    One dense matvec per sample, O(m n^2) in Python steps.  Kept as an
    independent reference for the blocked recursion.
    """
    inputs = np.asarray(inputs, dtype=complex)
    h = np.zeros(col.n, dtype=complex)
    outputs = np.empty(len(inputs), dtype=complex)
    states = np.empty((len(inputs) + 1, col.n), dtype=complex)
    states[0] = h
    for k, phi in enumerate(inputs):
        outputs[k] = col.A * phi + col.B @ h
        h = col.C * phi + col.D @ h
        states[k + 1] = h
    return outputs, states


def reference_resolvent(D, points, rhs):
    """Rows (I - z D)^{-1} rhs_z, one LU solve per point z.

    rhs is shared, shape (n,), or one row per point.  Kept as an
    independent reference for the stacked solve.
    """
    points = np.asarray(points, dtype=complex)
    rhs = np.broadcast_to(np.asarray(rhs, dtype=complex), (len(points), len(D)))
    eye = np.eye(len(D))
    return np.array(
        [np.linalg.solve(eye - z * D, b) for z, b in zip(points, rhs)]
    ).reshape(len(points), len(D))


def assert_stored_exactly(cert, M):
    """Exact zeros above the band, a real nonnegative band and H[0, 0] = M[0, 0].

    The reduction stores its form exactly and does not scan it, so this is
    where the promise is checked.  An upper certificate is checked on H*,
    the lower form of M*.
    """
    H = cert.H if cert.orientation == "lower" else cert.H.conj().T
    assert not np.triu(H, 2).any()
    band = np.diagonal(H, 1)
    assert not band.imag.any() and (band.real >= 0.0).all()
    assert cert.H[0, 0] == M[0, 0]


def count_full_reductions(monkeypatch):
    """A list that gains the degree of every reduction entering the Arnoldi loop."""
    entered = []
    loop = sc.hessenberg._arnoldi_lower

    def recording(M):
        entered.append(M.shape[0] - 1)
        return loop(M)

    monkeypatch.setattr(sc.hessenberg, "_arnoldi_lower", recording)
    return entered


def count_reductions(monkeypatch):
    """A list that gains the matrix of every checked lower reduction.

    Wraps ``hessenberg.reduce_to_special_lower_hessenberg``, which a
    colligation's kept lower form looks up when it is first read.
    """
    reduced = []
    reduce = sc.hessenberg.reduce_to_special_lower_hessenberg

    def recording(M):
        reduced.append(M)
        return reduce(M)

    monkeypatch.setattr(sc.hessenberg, "reduce_to_special_lower_hessenberg", recording)
    return reduced


def count_unitarity_residuals(monkeypatch):
    """A list that gains the size of every matrix whose unitarity residual is taken.

    Wraps ``colligation.unitarity_residual`` under each module's name for it,
    set even where a module does not import it, so a call from there counts.
    """
    taken = []
    residual = sc.colligation.unitarity_residual

    def recording(matrix):
        taken.append(len(matrix))
        return residual(matrix)

    for module in (sc.colligation, sc.hessenberg, sc.redheffer):
        monkeypatch.setattr(module, "unitarity_residual", recording, raising=False)
    return taken


def count_resolvent_solves(monkeypatch):
    """A list that gains the number of points of every resolvent solve.

    Wraps ``colligation._resolvent_apply``, which every LU evaluation of S
    and of ``characteristic_matrix`` goes through, under the name of each
    module that calls it; a scalar point counts as 1.
    """
    solved = []
    solve = sc.colligation._resolvent_apply

    def recording(D, z, rhs):
        solved.append(int(np.size(z)))
        return solve(D, z, rhs)

    for module in (sc.colligation, sc.redheffer):
        monkeypatch.setattr(module, "_resolvent_apply", recording)
    return solved


def reference_fold(params, z):
    """S(z) by the fold's own arithmetic, w <- (s + zw) / (1 + conj(s) zw), zw = z w.

    The operations of ``colligation._fold`` in their order, kept as the
    reference for its bits: Python complex numbers for one point, numpy's
    arithmetic for an array.
    """
    w = params[-1]
    for s in reversed(params[:-1]):
        zw = z * w
        w = (s + zw) / (1.0 + s.conjugate() * zw)
    return w


def band_length(col):
    """Leading band entries of the lower form above the minimality threshold.

    A zero band entry H[k, k+1] splits a unitary H into two diagonal
    blocks, and the first realizes S, so this count is the degree of S.
    """
    H = sc.reduce_to_special_lower_hessenberg(col.matrix).H
    band = np.abs(np.diagonal(H, 1))
    cut = max(len(H), 8) * sc.tolerances.RANK_REL * np.abs(H).max()
    return int(np.argmin(np.append(band > cut, False)))


def hankel_rank(col):
    """Numerical rank of the n x n Hankel matrix [B D^(i+j) C] of the Markov parameters.

    It is the degree of S, so a colligation is minimal exactly when it
    equals n.  Singular values count above max(n+1, 8) * 1e-10 * sigma_max.
    The Hankel singular values decay with n, so this is a reference for
    small n only, independent of the Hessenberg band.
    """
    n = col.n
    if n == 0:
        return 0
    coeffs = sc.markov_parameters(col, 2 * n + 1)
    hankel = np.array([[coeffs[i + j + 1] for j in range(n)] for i in range(n)])
    s = np.linalg.svd(hankel, compute_uv=False)
    return int(np.sum(s > max(n + 1, 8) * 1e-10 * s[0]))


# minimal pairwise separation of zeros for the Pick-matrix reference below;
# the model realization itself needs none
SEP = 1e-4


class ZerosTooClose(Exception):
    """Blaschke zeros violate the minimal pairwise separation."""


class NotPositiveDefinite(Exception):
    """A Gram matrix expected to be positive definite is not."""


@dataclass(frozen=True)
class KernelBasis:
    zeros: tuple
    gram: np.ndarray
    cholesky: np.ndarray
    eigenvalues: np.ndarray


def kernel_basis(zeros):
    """Gram (Pick) matrix and Cholesky factor of the kernel functions at the zeros.

    Kept as the reference for the kernel-space model: the cascade's
    vectors (I - conj(w) D*)^{-1} B* at the zeros have this Gram matrix.
    """
    zeros = tuple(complex(z) for z in zeros)
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            gap = abs(zeros[i] - zeros[j])
            if gap < SEP:
                raise ZerosTooClose(
                    f"zeros {zeros[i]!r} and {zeros[j]!r} are {gap:.3e} apart "
                    f"(minimum {SEP:g})"
                )
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
