"""Unitary colligations and their characteristic functions.

A colligation is an (n+1) x (n+1) complex matrix ``U = [[A, B], [C, D]]``
with a scalar exterior channel: ``A`` is 1x1, ``B`` is 1xn, ``C`` is nx1
and ``D`` is nxn.  Its characteristic function

    S(z) = A + z B (I - z D)^{-1} C

is evaluated on one route.  Every colligation is equivalent to its
special lower Hessenberg form, and that form is the Redheffer coupling
of its elementary Schur sections, so S is the Moebius fold of its Schur
parameters.  A colligation has one lower matrix
(``UnitaryColligation._lower``).  It tests once whether its matrix is
exactly in that form (``_exact``); if so, the matrix is its own lower
matrix, and otherwise the lower matrix is the H of the checked
certificate, reduced once on first need by
``hessenberg.reduce_to_special_lower_hessenberg`` and kept (``_form``).
The Schur parameters are peeled off the lower matrix once, O(n^2), and
kept, with the index at which the peel leaves the disc (``_peeled`` and
``_stop``).  The fold reads that peel up to the first band entry that is
exactly 0 (``_sections``), and each point then costs O(n).  The same
sweep carries the resolvent vectors r = (I - z D)^{-1} C and
l = B (I - z D)^{-1} of the lower matrix (:func:`_section_chain`), which
the gauge V maps back to the matrix.  Its consumers:

- :func:`characteristic_function` folds one Python complex at a time,
  also for the points of an array, so a point gets the same bits alone
  and in an array (numpy's complex array products round differently
  from Python's); a point outside the disc is the reflection
  1 / conj(S(1/conj(z))) of an inner S;
- :func:`verify_spectral_identities` takes S, r and l off the section
  chain, and :func:`inner_sampling_report` S off the fold, in numpy's
  arithmetic over all their points in the closed disc;
- ``schur_state`` folds the recovered parameters over the roots of unity
  of its backward check, in numpy's arithmetic.

The values are those of the closed form of the peel.  The readout
residual (``schur_state.readout_residual``) ties them to the lower
matrix, and the certificate's reconstruction residual ties a reduced
lower matrix to the matrix; either moves them by at most about its size
times the resolvent bound 1 / (1 - |z|), taken at 1/conj(z) outside the
disc.  No linear system is solved and no determinant is taken.  The
recursion, ``hessenberg.find_equivalence``,
:attr:`UnitaryColligation.minimal` and the CLI's band diagnostic read
the same peel and band.  Every read of the certificate sits behind
``not _exact``: a matrix not exactly in lower form is reduced once, on
first need, for its H and gauge V, and a matrix exactly in lower form,
a closed form for one, never builds it.  The exact-form test, the band
rule and the peel's stop rule live here.

The time-domain recursion keeps its states as the rows of one array.
It carries only the state at every ``BLOCK``-th step, by D^BLOCK and
one window sum per block from the first Krylov block
[C, DC, ..., D^(BLOCK-1) C], and then steps the rows between these
edges for all blocks at once by [C D];
D^BLOCK and the Krylov block are formed once per colligation and kept.
The Markov parameters are this recursion's impulse response.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, DiscViolation, NearPole, NotUnitary
from .sampling import circle_samples, disc_samples

__all__ = [
    "UnitaryColligation",
    "SpectralIdentityReport",
    "unitarity_residual",
    "require_unitary",
    "characteristic_function",
    "band_residual",
    "apply_state_gauge",
    "intertwining_residual",
    "simulate_time_domain",
    "markov_parameters",
    "verify_spectral_identities",
    "inner_sampling_report",
]


def _require_square(shape: tuple[int, ...]) -> None:
    """DimensionMismatch unless shape is that of a square 2-D array: O(1)."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {shape}")


def unitarity_residual(matrix: np.ndarray) -> float:
    """max|U*U - I| in the entrywise max norm, for a square U.

    One Gram product bounds both sides: U*U - I and UU* - I have the same
    singular values |sigma_k^2 - 1|, so for an m x m U both have 2-norm
    at most the Frobenius norm of U*U - I, at most m times this residual
    (m = n + 1 for a colligation of state dimension n).  DimensionMismatch
    unless U is a square 2-D array, before any arithmetic.  An empty matrix
    (the gauge of a degree-0 colligation) has residual 0.
    """
    m = np.asarray(matrix, dtype=complex)
    _require_square(m.shape)
    gram = m.conj().T @ m
    # the diagonal: every (len + 1)-th entry of the flat view
    gram.reshape(-1)[:: len(gram) + 1] -= 1.0
    return float(np.abs(gram).max(initial=0.0))


def require_unitary(matrix: np.ndarray, what: str) -> float:
    """The unitarity residual; NotUnitary unless it is at most UNITARY (NaN fails)."""
    residual = unitarity_residual(matrix)
    if not residual <= tol.UNITARY:
        raise NotUnitary(f"{what} is not unitary: residual {residual:.3e}", residual)
    return residual


@dataclass(frozen=True)
class UnitaryColligation:
    """A verified-unitary matrix, its unitarity residual and the 1/n block split.

    What is derived from the matrix is made on first use and kept with
    it: D^BLOCK and the first Krylov block for the simulation, the
    exact-form test, the one peel of the lower matrix that the fold, the
    recursion, the equivalence test, minimality and the CLI read, and,
    only for a matrix not exactly in lower form, its checked lower form.
    """

    matrix: np.ndarray
    unitarity: float = field(init=False, compare=False)

    def __post_init__(self):
        self._own(np.array(self.matrix, dtype=complex))

    @classmethod
    def _adopt(cls, m: np.ndarray) -> UnitaryColligation:
        """The colligation of m, a complex array built for it: gated, not copied."""
        col = object.__new__(cls)
        col._own(m)
        return col

    def _own(self, m: np.ndarray) -> None:
        # require_unitary rejects a shape that is not square
        if not m.size:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "unitarity", require_unitary(m, "colligation matrix"))
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

    @cached_property
    def _d_power(self) -> np.ndarray:
        """D^BLOCK, formed on first use and kept with the colligation (read-only)."""
        power = np.linalg.matrix_power(self.D, BLOCK)
        power.setflags(write=False)
        return power

    @cached_property
    def _krylov_head(self) -> np.ndarray:
        """The first Krylov block, rows C, DC, ..., D^(BLOCK-1) C, kept like D^BLOCK.

        Built by D one row at a time on first use, read-only.  Reversed, it
        takes each block's window sum in ``simulate_time_domain``.
        """
        head = np.empty((BLOCK, self.n), dtype=complex)
        head[0] = self.C
        for t in range(1, BLOCK):
            np.matmul(self.D, head[t - 1], out=head[t])
        head.setflags(write=False)
        return head

    @cached_property
    def _form(self):
        """The checked lower form of the matrix, a ``HessenbergCertificate``.

        Reduced on first use by ``hessenberg.reduce_to_special_lower_hessenberg``,
        looked up when called (that module imports this one), and kept with
        its arrays read-only.  Read only when the matrix is not exactly in
        lower form: for its H (``_lower``, which the recursion's trace
        shares), and for its gauge V by the equivalence test and the
        section chain.  A matrix exactly in lower form builds none.  Read
        on any matrix it is still correct: the checked reduction returns
        an exact input as its own form, with V = I.
        """
        from .hessenberg import reduce_to_special_lower_hessenberg

        form = reduce_to_special_lower_hessenberg(self.matrix)
        for array in (form.H, form.V, form.band):
            array.setflags(write=False)
        return form

    @cached_property
    def _exact(self) -> bool:
        """The matrix is exactly in special lower Hessenberg form, tested once."""
        return _in_lower_form(self.matrix)

    @property
    def _lower(self) -> np.ndarray:
        """The lower matrix: the matrix itself when exact, else the kept form's H."""
        return self.matrix if self._exact else self._form.H

    @cached_property
    def _peeled(self) -> tuple[complex, ...]:
        """Schur parameters s_0 .. s_n peeled off the lower matrix (:func:`_peel`)."""
        return _peel(self._lower)

    @cached_property
    def _stop(self) -> int:
        """Index of the first peeled s_p, p < n, on or past 1 - DISC; n if none.

        The one stop rule of the peel: the recursion ends there, and the
        equivalence test needs it at n.
        """
        inside = map(tol.inside_disc, self._peeled[: self.n])
        return next((p for p, ok in enumerate(inside) if not ok), self.n)

    @property
    def minimal(self) -> bool:
        """Minimality (for a unitary colligation also simplicity): ``_lower``'s band.

        Minimal exactly when the band residual of the lower matrix is at
        most 1 (:func:`band_residual`).
        """
        return band_residual(self._lower) <= 1.0

    @cached_property
    def _sections(self) -> tuple[complex, ...]:
        """The Schur parameters S is folded from: the kept peel, cut at a split.

        At n >= 1, ``_peeled`` up to the first band entry of ``_lower``
        that is exactly 0, where the lower matrix splits into two diagonal
        blocks and that s_q is unimodular; the first block carries S.  A
        band entry that is small but not 0 cuts nothing.  At n = 0, (A,),
        so S = A bitwise.  A matrix not exactly in lower form is reduced
        once, on first need.
        """
        if not self.n:
            return (self.A,)
        zeros = np.flatnonzero(np.diagonal(self._lower, 1) == 0.0)
        return self._peeled[: zeros[0] + 1] if len(zeros) else self._peeled


def _in_lower_form(M: np.ndarray) -> bool:
    """M is exactly special lower Hessenberg: zeros above the band, band real >= 0."""
    band = np.diagonal(M, 1)
    return not (
        np.triu(M, 2).any() or band.imag.any() or not (band.real >= 0.0).all()
    )


def band_residual(H: np.ndarray) -> float:
    """max(n+1, 8) * RANK_REL * max|H| over the smallest band entry of H.

    H is the lower form of a colligation, which is minimal exactly when
    this is at most 1.  A zero band entry gives inf, and n = 0 gives 0.
    DimensionMismatch unless H is a square 2-D array, before any arithmetic.
    """
    _require_square(np.shape(H))
    band = np.abs(np.diagonal(H, 1))
    if not len(band):
        return 0.0
    cut = max(len(H), 8) * tol.RANK_REL * float(np.abs(H).max())
    smallest = float(band.min())
    return cut / smallest if smallest > 0.0 else math.inf


def _peel_steps(H: np.ndarray):
    """The peel of a unitary H in special lower Hessenberg form, one section at a time.

    H is the product of its elementary sections, applied to columns p and
    p+1 from p = n-1 down to 0 after the terminal phase
    (:func:`schurcol.schur_state.product_form_matrix`).  They are peeled
    off from the left (Gragg 1982; Ammar, Gragg & Reichel 1986).  With
    sections 0 .. p-1 gone, row p holds only (a, b): a the head of the
    carried column p and b >= 0 the untouched band entry H[p, p+1].
    With scale = 1 / |(a, b)|, section p's parameters are s_p = a scale
    and d_p = b scale.  Its inverse [[conj(s_p), d_p], [d_p, -s_p]] on
    columns p and p+1 leaves column p zero below row p, so only the new
    column p+1, d_p column[1:] - s_p H[p+1:, p+1], is carried.  Yields
    (s_p, scale_p, column_p) for p = 0 .. n, column_p being column p of
    the peeled matrix from row p down.  The last row has no band entry,
    so the terminal s_n is its head over its modulus.  Each s_p is read
    from entries of size about |s_p|, O(n) per section.
    """
    n = len(H) - 1
    band = np.diagonal(H, 1).real.tolist()
    column = H[:, 0]
    for p in range(n):
        a, b = complex(column[0]), band[p]
        scale = 1.0 / math.hypot(a.real, a.imag, b)
        s = a * scale
        following = (b * scale) * column[1:] - s * H[p + 1 :, p + 1]
        yield s, scale, column
        column = following
    a = complex(column[0])
    scale = 1.0 / abs(a)
    yield a * scale, scale, column


def _peel(H: np.ndarray) -> tuple[complex, ...]:
    """Schur parameters s_0 .. s_n of a unitary H in special lower Hessenberg form.

    The one readout of parameters off a lower form: the section peel of
    :func:`_peel_steps`, O(n^2).  The caller decides what to do with an
    s_p on or past the unit circle.
    """
    return tuple(s for s, _, _ in _peel_steps(H))


def _fold(params, z, steps=None):
    """S(z) from its Schur parameters s_0 .. s_n, O(n) per point.

    Folds w <- (s + z w) / (1 + conj(s) z w) from w = s_n.  params holds
    Python complex numbers.  z is one Python complex, or an array whose
    points are folded together in numpy's complex arithmetic; numpy's
    array products round differently from Python's (they may fuse a
    multiply and an add), so a caller whose values must have the same
    bits alone and in an array folds them one Python complex at a time.
    A list passed as steps gains each step's (w, 1 + conj(s) z w), the
    tail before it and its denominator, from s_{n-1} down to s_0.
    """
    w = params[-1]
    for s in params[-2::-1]:
        zw = z * w
        denominator = 1.0 + s.conjugate() * zw
        if steps is not None:
            steps.append((w, denominator))
        w = (s + zw) / denominator
    return w


def _check_count(n: int) -> int:
    """Points of a check on the circle: at least 4(n + 1), a multiple of 16.

    Two functions of degree n that agree at more than 2n points of the
    circle are equal, and a degree-n inner function winds n times round
    it, so the count grows with the degree.
    """
    return 16 * -(-(n + 1) // 4)


def _section_chain(col: UnitaryColligation, z: np.ndarray):
    """(S, r, l) at the points z off the sections of the lower form, O(n) per point.

    col has the sections s_0 .. s_q (``UnitaryColligation._sections``),
    its lower matrix H band entries d_k = H[k, k+1], and z is a 1-D array
    of points with |z| <= 1.  H is the Redheffer coupling of its
    sections, so the fold's tails f_q = s_q, f_k = (s_k + z f_{k+1}) /
    (1 + conj(s_k) z f_{k+1}) carry its resolvent vectors along: with
    e_0 = 1 and e_{k+1} = e_k d_k / (1 + conj(s_k) z f_{k+1}),

        S = f_0,  r_j = ((I - z D)^{-1} C)_j = f_{j+1} e_{j+1},
        l_j = (B (I - z D)^{-1})_j = z^j e_{j+1},

    r and l with one row per point and n columns.  Past a split (q < n,
    d_q = 0) every e_{j+1} is 0, so those columns are 0.  The fold's
    array mode gives the tails and denominators; e and z^j e are running
    products down them.  Inside the closed disc |f_{k+1}| <= 1, so
    |conj(s_k) z f_{k+1}| <= |s_k|, and a denominator can vanish only on
    the circle at a unimodular parameter: that point is a pole of the
    fold, and NearPole names the first point whose value is not finite.
    For a matrix M not exactly in lower form, H = G* M G with
    G = diag(1, V) of the kept certificate, and the vectors are mapped
    back to M: r_M = V r_H and l_M = l_H V*.
    """
    band = np.diagonal(col._lower, 1).real
    steps = []
    # a zero denominator leaves a non-finite value, named below
    with np.errstate(divide="ignore", invalid="ignore"):
        # an array of the points' shape also when no section folds (q = 0)
        values = np.broadcast_to(_fold(col._sections, z, steps), z.shape)
    pole = ~np.isfinite(values)
    if pole.any():
        raise NearPole(f"S is not finite at z = {complex(z[pole.argmax()])!r}")
    # one row per state, returned transposed; rows from q on stay 0
    tails, ratios = np.zeros((2, col.n, len(z)), dtype=complex)
    # steps run from s_{q-1} down to s_0; row k holds section k's
    for k, (tail, denominator) in enumerate(reversed(steps)):
        tails[k] = tail
        ratios[k] = band[k] / denominator
    # tails times e by the ufunc: with `*`, numpy may reuse a large
    # temporary e as the left operand, which rounds differently
    r = np.multiply(tails, np.cumprod(ratios, axis=0))
    ratios[1:] *= z
    l = np.cumprod(ratios, axis=0)
    if not col._exact:
        r, l = col._form.V @ r, col._form.V.conj() @ l
    return values, r.T, l.T


def _value(sections: tuple[complex, ...], z: complex) -> complex:
    """S at one Python complex z: the fold in the closed disc, reflected outside.

    Outside the disc an inner S has S(z) = 1 / conj(S(1/conj(z))), so z
    is a pole (NearPole) when |S(1/conj(z))| <= POLE.  A fold with no
    step is the constant s_0 everywhere.  NearPole also at a non-finite
    z, before any arithmetic with it, and where the value is not finite,
    a fold through a zero denominator included.
    """
    if not cmath.isfinite(z):
        raise NearPole(f"z = {z!r} is not a finite point")
    outside = abs(z) > 1.0 and len(sections) > 1
    try:
        value = _fold(sections, 1.0 / z.conjugate() if outside else z)
    except ZeroDivisionError:
        value = math.nan
    if outside:
        if not abs(value) > tol.POLE:
            raise NearPole(f"|S(1/conj(z))| <= {tol.POLE:g} at z = {z!r}")
        value = 1.0 / value.conjugate()
    if not cmath.isfinite(value):
        raise NearPole(f"S is not finite at z = {z!r}")
    return value


def characteristic_function(col: UnitaryColligation, z):
    """S(z) = A + z B (I - z D)^{-1} C, folded from the colligation's sections.

    A complex for one point z; for an array of points, an array of their
    shape.  Every point is folded from ``UnitaryColligation._sections``,
    one Python complex at a time, so it gets the same bits alone and in an
    array: a point with |z| <= 1 directly, and a point outside the disc by
    the reflection 1 / conj(S(1/conj(z))), with NearPole where
    |S(1/conj(z))| <= POLE (:func:`_value`).  A non-finite z is a NearPole
    that names it.  The values are those of the closed form of the
    sections; the readout residual and, for a matrix not exactly in lower
    form, the certificate's reconstruction residual tie them to the
    matrix, each times 1 / (1 - |z|), taken at 1/conj(z) outside the disc.
    Such a matrix is reduced once, on first need; then each point costs
    O(n).
    """
    if np.ndim(z) == 0:
        return _value(col._sections, complex(z))
    z = np.asarray(z, dtype=complex)
    values = [_value(col._sections, x) for x in z.ravel().tolist()]
    return np.array(values, dtype=complex).reshape(z.shape)


def apply_state_gauge(col: UnitaryColligation, V: np.ndarray) -> UnitaryColligation:
    """Conjugate by diag(1, V); the characteristic function is unchanged."""
    V = np.asarray(V, dtype=complex)
    if V.shape != (col.n, col.n):
        raise DimensionMismatch(f"gauge must be {col.n}x{col.n}, got {V.shape}")
    require_unitary(V, "gauge matrix")
    G = np.eye(col.n + 1, dtype=complex)
    G[1:, 1:] = V
    return UnitaryColligation._adopt(G.conj().T @ col.matrix @ G)


def _require_count(m, least: int, what: str) -> None:
    """DimensionMismatch unless m is an integer, not a bool, of at least least."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < least:
        raise DimensionMismatch(f"{what} must be an integer >= {least}, got {m!r}")


# steps per block of the time-domain recursion; a power of two, so
# matrix_power forms D^BLOCK by repeated squaring alone
BLOCK = 32


def markov_parameters(col: UnitaryColligation, m: int) -> np.ndarray:
    """First ``m`` Taylor coefficients of S at 0: A, BC, BDC, ...

    The outputs of ``simulate_time_domain`` on an impulse of length m, so
    an impulse response equals them bit for bit.  A count that is a bool
    or not an integer raises DimensionMismatch.
    """
    _require_count(m, 0, "coefficient count")
    impulse = np.zeros(m, dtype=complex)
    impulse[:1] = 1.0
    return simulate_time_domain(col, impulse)[0]


def intertwining_residual(
    col1: UnitaryColligation, col2: UnitaryColligation, V: np.ndarray
) -> float:
    """max-norm of diag(1, V) U2 - U1 diag(1, V).

    DimensionMismatch unless both state dimensions are n and V is n x n.
    """
    if col2.n != col1.n or np.shape(V) != (col1.n, col1.n):
        raise DimensionMismatch(f"gauge {np.shape(V)} for n = {col1.n}, {col2.n}")
    G = np.eye(col1.n + 1, dtype=complex)
    G[1:, 1:] = V
    return float(np.abs(G @ col2.matrix - col1.matrix @ G).max())


def simulate_time_domain(
    col: UnitaryColligation, inputs
) -> tuple[np.ndarray, np.ndarray]:
    """Run the state recursion [psi_k; h_{k+1}] = U [phi_k; h_k] from h_0 = 0.

    Returns the output sequence and the state trajectory ``h_0 .. h_m``
    (one more row than there are inputs), as the C-contiguous rows of an
    (m + 1) x n array.  With a unitary matrix the balance
    ``sum |psi|^2 + |h_m|^2 = sum |phi|^2`` holds to roundoff.

    The inputs are cut into blocks of BLOCK samples.  Only the block
    edges h_{BLOCK b} with BLOCK b <= m are carried from block to block,
    so D^BLOCK is formed only when m >= 2 BLOCK:
    h_{BLOCK (b+1)} = D^BLOCK h_{BLOCK b} + sum_t D^(BLOCK-1-t) C phi_{BLOCK b + t},
    where all the window sums are one product of the blocked inputs with
    the colligation's kept Krylov block [C, DC, ...], reversed.  The rows
    between the edges are then stepped for all blocks at once, one
    product [phi_k | h_k] @ [C D]^T per step.  The outputs B h_k are one
    product of all state rows with B.  That is n (n + 1) + (n^2 + BLOCK n)
    / BLOCK complex multiply-adds per sample for the states.
    """
    inputs = np.asarray(inputs, dtype=complex)
    if inputs.ndim != 1:
        raise DimensionMismatch(
            f"expected a 1-D input sequence, got shape {inputs.shape}"
        )
    m, n = len(inputs), col.n
    blocks = -(-m // BLOCK)
    size = blocks * BLOCK
    # row k holds h_k, so block b spans rows BLOCK b .. BLOCK b + BLOCK - 1
    states = np.empty((1 + size, n), dtype=complex)
    states[0] = 0.0
    feed = np.zeros(1 + size, dtype=complex)  # B h_k
    if blocks:
        phi = np.zeros((blocks, BLOCK), dtype=complex)
        phi.reshape(-1)[:m] = inputs
        # edges[b] = h_{BLOCK (b+1)}, first its block's window sum; h_0 = 0.
        # Only the edges up to row m are carried: the last block's own
        # edge lies past the run unless m is a multiple of BLOCK
        edges = states[BLOCK::BLOCK]
        np.matmul(phi, col._krylov_head[::-1], out=edges)
        if m >= 2 * BLOCK:
            power_t = col._d_power.T
            for edge, prev in zip(edges[1 : m // BLOCK], edges):
                edge += prev @ power_t
        rows = states[:size].reshape(blocks, BLOCK, n)
        kernel_t = col.matrix[1:].T  # [C D]^T
        here, there = np.empty((2, blocks, 1 + n), dtype=complex)
        here[:, 0] = phi[:, 0]
        here[:, 1:] = rows[:, 0]
        for t in range(1, BLOCK):
            np.matmul(here, kernel_t, out=there[:, 1:])
            rows[:, t] = there[:, 1:]
            there[:, 0] = phi[:, t]
            here, there = there, here
        np.matmul(states[1:], col.B, out=feed[1:])
    return col.A * inputs + feed[:m], states[: m + 1]


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

    For sample pairs (z, zeta) in the closed disc:

      (1 - conj(S(zeta)) S(z)) / (1 - conj(zeta) z)
            = C* (I - conj(zeta) D*)^{-1} (I - z D)^{-1} C
      (1 - S(z) conj(S(zeta))) / (1 - z conj(zeta))
            = B (I - z D)^{-1} (I - conj(zeta) D*)^{-1} B*
      (S(zeta) - S(z)) / (zeta - z)
            = B (I - zeta D)^{-1} (I - z D)^{-1} C       (zeta != z)
      1 - |S(z)|^2 = (1 - |z|^2) |(I - z D)^{-1} C|^2

    All four need only the resolvent vectors r = (I - w D)^{-1} C and
    l = B (I - w D)^{-1} at the points w of both lists, with
    S(w) = A + w B r: the right-hand sides are conj(r_zeta) r_z,
    l_z conj(l_zeta), l_zeta r_z and |r_z|^2.  S, r and l come off the
    section chain of the lower form (:func:`_section_chain`), O(n) per
    point, and for a matrix not exactly in lower form r and l are mapped
    back by the gauge, r = V r_H and l = l_H V*.  They are tied to the
    matrix as the values of :func:`characteristic_function` are.  Pairs
    are zipped, so the shorter sample list sets their number.
    DimensionMismatch unless both sample lists are 1-D; NearPole names a
    non-finite point and DiscViolation a point outside the closed disc,
    before any arithmetic, and NearPole the first pole on the circle.
    """
    z = np.asarray(z_samples, dtype=complex)
    zeta = np.asarray(zeta_samples, dtype=complex)
    if z.ndim != 1 or zeta.ndim != 1:
        raise DimensionMismatch(f"sample lists must be 1-D, got {z.shape}, {zeta.shape}")
    count = min(len(z), len(zeta))
    z, zeta = z[:count], zeta[:count]
    points = np.concatenate([z, zeta])
    outside = ~(np.abs(points) <= 1.0)
    if outside.any():
        point = complex(points[outside.argmax()])
        error = DiscViolation if cmath.isfinite(point) else NearPole
        raise error(f"z = {point!r} is not a finite point of the closed unit disc")
    s, r, l = _section_chain(col, points)
    (rz, rzeta), (lz, lzeta), (sz, szeta) = (np.split(a, [count]) for a in (r, l, s))
    lhs1 = (1.0 - szeta.conj() * sz) / (1.0 - zeta.conj() * z)
    r1 = np.abs(lhs1 - (rzeta.conj() * rz).sum(axis=1)).max(initial=0.0)
    lhs2 = (1.0 - sz * szeta.conj()) / (1.0 - z * zeta.conj())
    r2 = np.abs(lhs2 - (lz * lzeta.conj()).sum(axis=1)).max(initial=0.0)
    apart = np.abs(zeta - z) > 1e-8
    lhs3 = (szeta[apart] - sz[apart]) / (zeta[apart] - z[apart])
    mixed = (lzeta[apart] * rz[apart]).sum(axis=1)
    r3 = np.abs(lhs3 - mixed).max(initial=0.0)
    lhs4 = 1.0 - np.abs(sz) ** 2
    norms = (np.abs(rz) ** 2).sum(axis=1)
    r4 = np.abs(lhs4 - (1.0 - np.abs(z) ** 2) * norms).max(initial=0.0)
    return SpectralIdentityReport(float(r1), float(r2), float(r3), float(r4))


def inner_sampling_report(
    col: UnitaryColligation,
    disc_count: int = 100,
    circle_count: int = 64,
):
    """(max disc excess, max circle deviation) of |S| for this colligation.

    Each sample set is folded from the colligation's sections in numpy's
    arithmetic, in one batch.  A fold through a zero denominator, which
    only a unimodular parameter gives and only on the circle, is a pole
    there and makes the circle deviation inf.  DimensionMismatch unless
    both counts are integers of at least 1, so the check never passes on
    no sample.
    """
    _require_count(disc_count, 1, "disc sample count")
    _require_count(circle_count, 1, "circle sample count")
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = _fold(col._sections, disc_samples(disc_count, radius=0.99))
        circle = _fold(col._sections, circle_samples(circle_count))
    disc_excess = np.max(np.abs(disc) - 1.0, initial=0.0)
    deviation = np.abs(np.abs(circle) - 1.0)
    circle_dev = np.inf if np.isnan(deviation).any() else np.max(deviation)
    return float(disc_excess), float(circle_dev)
