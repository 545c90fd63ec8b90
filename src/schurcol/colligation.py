"""Unitary colligations and their characteristic functions.

A colligation is an (n+1) x (n+1) complex matrix ``U = [[A, B], [C, D]]``
with a scalar exterior channel: ``A`` is 1x1, ``B`` is 1xn, ``C`` is nx1
and ``D`` is nxn.  Its characteristic function

    S(z) = A + z B (I - z D)^{-1} C

is evaluated on one of two routes.  A matrix exactly in special lower
Hessenberg form with a minimal band is the Redheffer coupling of its
elementary Schur sections, so its S is the Moebius fold of its Schur
parameters.  These are peeled off the matrix once, O(n^2), and kept with
the colligation; each point z with |z| <= 1 then costs O(n) operations.
The same sweep carries the resolvent vectors r = (I - z D)^{-1} C and
l = B (I - z D)^{-1} (:func:`_section_chain`).  The fold is taken only
while every peeled s_p with p < n is inside the disc.  Its consumers:

- :func:`characteristic_function` folds one Python complex at a time,
  also for the points of an array, so a point gets the same bits alone
  and in an array (numpy's complex array products round differently
  from Python's);
- :func:`verify_spectral_identities` takes S, r and l off the section
  chain, and :func:`inner_sampling_report` S off the fold, in numpy's
  arithmetic over all their points, when every point has |z| <= 1;
  their values are the closed form's, which
  ``schur_state.readout_residual`` ties to the matrix;
- ``schur_state`` folds the recovered parameters over the roots of unity
  of its backward check, in numpy's arithmetic.

Every other point (|z| > 1, a gauged or non-minimal matrix, n = 0) takes
one LU solve of (I - z D) x = C, and all points take the same path: the
matrices I - z_k D of a chunk of points go to one stacked LAPACK call,
which gives each point the result of its own solve.  One point is a
stack of one, so it gets the same bits alone and in an array, and an
empty state space (n = 0) needs no branch.  The matrix is never
inverted explicitly and no determinant is taken.  The solve itself is
the pole test, applied per point: z counts as a pole (NearPole) when
LAPACK finds I - z D singular or when max|x| exceeds max|C| / POLE.  A
chunk holds at most ``STACK`` complex matrix entries (1 MiB), so the
memory of a batch is bounded at every degree.  The sampling checks here
and in :mod:`schurcol.realization` and :mod:`schurcol.redheffer` take
each sample set as one batch on this route, and the four kernel
identities of :func:`verify_spectral_identities` need only two batches,
r and l at all their points.

The special lower Hessenberg form is the colligation's canonical form.
A colligation reduces itself once, on first need, by
``hessenberg.reduce_to_special_lower_hessenberg``, and keeps the checked
certificate, the Schur parameters peeled off it and the index at which
the peel leaves the disc (``UnitaryColligation._form``, ``_peeled`` and
``_stop``).  The state-space recursion, ``hessenberg.find_equivalence``,
:attr:`UnitaryColligation.minimal` and the CLI's band diagnostic read
what is kept.  Evaluation never builds it: the fold needs a matrix
exactly in lower form and peels that matrix itself.  The exact-form
test, the band rule and the peel's stop rule live here.  The time-domain
recursion keeps its states as the rows of one array.  It carries only
the state at every ``BLOCK``-th step, by D^BLOCK and one window sum per
block from the first Krylov block [C, DC, ..., D^(BLOCK-1) C], and then
steps the rows between these edges for all blocks at once by [C D];
D^BLOCK and the Krylov block are formed once per colligation and kept.
The Markov parameters are this recursion's impulse response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NearPole, NotUnitary
from .sampling import circle_samples, disc_samples

__all__ = [
    "UnitaryColligation",
    "SpectralIdentityReport",
    "unitarity_residual",
    "require_unitary",
    "characteristic_function",
    "band_residual",
    "is_minimal_form",
    "apply_state_gauge",
    "intertwining_residual",
    "simulate_time_domain",
    "markov_parameters",
    "verify_spectral_identities",
    "inner_sampling_report",
]


def unitarity_residual(matrix: np.ndarray) -> float:
    """max|U*U - I| in the entrywise max norm, for a square U.

    One Gram product bounds both sides: U*U - I and UU* - I have the same
    singular values |sigma_k^2 - 1|, so for an m x m U both have 2-norm
    at most the Frobenius norm of U*U - I, at most m times this residual
    (m = n + 1 for a colligation of state dimension n).  An empty matrix
    (the gauge of a degree-0 colligation) has residual 0.
    """
    m = np.asarray(matrix, dtype=complex)
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
    sections for the fold, and the checked lower form with its peel for
    the recursion, the equivalence test, minimality and the CLI.
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
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
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
        its arrays read-only.
        """
        from .hessenberg import reduce_to_special_lower_hessenberg

        form = reduce_to_special_lower_hessenberg(self.matrix)
        for array in (form.H, form.V, form.band):
            array.setflags(write=False)
        return form

    @cached_property
    def _peeled(self) -> tuple[complex, ...]:
        """Schur parameters s_0 .. s_n peeled off the kept lower form (:func:`_peel`)."""
        return _peel(self._form.H)

    @cached_property
    def _stop(self) -> int:
        """Index of the first peeled s_p, p < n, on or past 1 - DISC; n if none."""
        return _disc_stop(self._peeled)

    @property
    def minimal(self) -> bool:
        """Minimality (for a unitary colligation also simplicity): the kept form's band."""
        return is_minimal_form(self._form.H)

    @cached_property
    def _sections(self) -> tuple[complex, ...] | None:
        """Schur parameters s_0 .. s_n to fold S from, or None for the LU route.

        Peeled off the matrix itself on first use and kept, so evaluation
        never reduces.  None unless n >= 1, the matrix is exactly in
        special lower Hessenberg form, its band is minimal
        (:func:`is_minimal_form`) and every peeled s_p with p < n is
        inside the disc.
        """
        m = self.matrix
        if self.n == 0 or not _in_lower_form(m) or not is_minimal_form(m):
            return None
        params = _peel(m)
        return params if _disc_stop(params) == self.n else None


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
    """
    band = np.abs(np.diagonal(H, 1))
    if not len(band):
        return 0.0
    cut = max(len(H), 8) * tol.RANK_REL * float(np.abs(H).max())
    smallest = float(band.min())
    return cut / smallest if smallest > 0.0 else math.inf


def is_minimal_form(H: np.ndarray) -> bool:
    """The minimality verdict on a lower form H: its band residual is at most 1."""
    return band_residual(H) <= 1.0


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


def _disc_stop(params) -> int:
    """Index of the first s_p, p < n, with |s_p| >= 1 - DISC; n if none.

    The one stop rule of the peel: the recursion ends there, and the fold
    and the equivalence test need it at n.
    """
    n = len(params) - 1
    return next((p for p in range(n) if not tol.inside_disc(params[p])), n)


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
    """(S, r, l) at the points z off the sections of a lower form, O(n) per point.

    col has peeled sections s_0 .. s_n (``UnitaryColligation._sections``),
    its matrix H band entries d_k = H[k, k+1], and z is a 1-D array of
    points with |z| <= 1.  H is the Redheffer coupling of its sections,
    so the fold's tails f_n = s_n, f_k = (s_k + z f_{k+1}) / (1 + conj(s_k)
    z f_{k+1}) carry the resolvent vectors along: with e_0 = 1 and
    e_{k+1} = e_k d_k / (1 + conj(s_k) z f_{k+1}),

        S = f_0,  r_j = ((I - z D)^{-1} C)_j = f_{j+1} e_{j+1},
        l_j = (B (I - z D)^{-1})_j = z^j e_{j+1},

    r and l with one row per point.  The fold's array mode gives the
    tails and denominators; e and z^j e are running products down them.
    Inside the closed disc |f_{k+1}| <= 1, so |conj(s_k) z f_{k+1}| <=
    |s_k| < 1 - DISC: no denominator vanishes and the chain needs no pole
    rule.
    """
    band = np.diagonal(col.matrix, 1).real
    steps = []
    values = _fold(col._sections, z, steps)
    shape = (len(steps), len(z))
    tails = np.empty(shape, dtype=complex)
    ratios = np.empty(shape, dtype=complex)
    # steps run from s_{n-1} down to s_0; row k holds section k's
    for k, (tail, denominator) in enumerate(reversed(steps)):
        tails[k] = tail
        ratios[k] = band[k] / denominator
    e = np.cumprod(ratios, axis=0)
    ratios[1:] *= z
    return values, (tails * e).T, np.cumprod(ratios, axis=0).T


# complex matrix entries per chunk of a stacked resolvent solve (1 MiB)
STACK = 2**16


def _resolvent_apply(D: np.ndarray, z, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - z D) x = rhs by LU with partial pivoting, for every point z.

    NearPole when LAPACK finds I - z D singular or max|x| > max|rhs| / POLE.
    A contraction D has ||(I - z D)^{-1}|| <= 1 / (1 - |z|), so inside the
    disc the rule can fire only within about sqrt(n) * POLE of the circle.

    z is a 1-D array of k points, or one point, which is solved as a stack
    of one.  rhs, a vector or a matrix with n rows, is shared by all the
    points; the solutions are stacked along a new first axis, which one
    point drops.  The points are solved in chunks of at most STACK matrix
    entries, each as one stacked LAPACK call, which gives every point the
    result of its own solve.  NearPole names the first point that fails
    the rule.
    """
    points = np.atleast_1d(np.asarray(z, dtype=complex))
    rhs = np.asarray(rhs, dtype=complex)
    n = len(D)
    x = np.empty(points.shape + rhs.shape, dtype=complex)
    # a vector rhs as one column
    columns = rhs[:, None] if rhs.ndim == 1 else rhs
    bound = np.abs(rhs).max(initial=0.0) / tol.POLE
    diagonal = np.arange(n)
    chunk = max(STACK // max(n * n, 1), 1)
    for start in range(0, len(points), chunk):
        zc = points[start : start + chunk]
        # z D as a column of points times a row of entries: numpy rounds
        # every entry alike at every batch size, which it does not for a
        # product broadcast over three axes with a lone entry (n = 1)
        M = (-zc[:, None] * D.reshape(1, n * n)).reshape(len(zc), n, n)
        M[:, diagonal, diagonal] += 1.0
        # rhs repeated along the stack (a view): numpy 1.x reads a
        # right-hand side with one axis fewer than M as a stack of vectors
        stacked = np.broadcast_to(columns, (len(zc),) + columns.shape)
        try:
            xc = np.linalg.solve(M, stacked).reshape(zc.shape + rhs.shape)
        except np.linalg.LinAlgError:
            if len(zc) == 1:
                singular = complex(zc[0])
                raise NearPole(f"I - z D is singular at z = {singular!r}") from None
            # the stacked call does not say which matrix was singular:
            # solve the chunk as stacks of one, which raises at the first
            for k in range(len(zc)):
                _resolvent_apply(D, zc[k : k + 1], rhs)
            raise
        bad = ~(np.abs(xc).reshape(len(zc), -1).max(axis=1, initial=0.0) <= bound)
        if bad.any():
            raise NearPole(
                f"(I - z D)^-1 amplifies by more than {1 / tol.POLE:g} "
                f"at z = {complex(zc[bad.argmax()])!r}"
            )
        x[start : start + chunk] = xc
    return x[0] if np.ndim(z) == 0 else x


def characteristic_function(col: UnitaryColligation, z):
    """S(z) = A + z B (I - z D)^{-1} C.

    A complex for one point z; for an array of points, an array of their
    shape.  A point with |z| <= 1 is folded from the colligation's peeled
    Schur parameters when it has them (``UnitaryColligation._sections``),
    one Python complex at a time, so it gets the same bits alone and in an
    array; every other point takes a resolvent solve, all of an array's
    in one batch, and one point alone as an array of one.
    """
    if np.ndim(z) == 0:
        point = complex(z)
        if abs(point) <= 1.0 and col._sections is not None:
            return _fold(col._sections, point)
        return complex(_solved_values(col, np.array([point]))[0])
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    values = np.empty(flat.shape, dtype=complex)
    solve = np.ones(flat.shape, dtype=bool)
    if col._sections is not None:
        # np.hypot, like abs for one point, is correctly rounded here, so a
        # root of unity is not pushed above 1 onto the LU route
        solve = ~(np.hypot(flat.real, flat.imag) <= 1.0)
        values[~solve] = [_fold(col._sections, x) for x in flat[~solve].tolist()]
    if solve.any():
        values[solve] = _solved_values(col, flat[solve])
    return values.reshape(z.shape)


def _solved_values(col: UnitaryColligation, points: np.ndarray) -> np.ndarray:
    """S at a 1-D array of points, by one resolvent solve per point."""
    # B x as one dot product per point: a matrix-vector product over the
    # batch would round differently from a batch of one
    x = _resolvent_apply(col.D, points, col.C)[:, None]
    return col.A + points * (x @ col.B)[:, 0]


def _on_the_chain(col: UnitaryColligation, points: np.ndarray) -> bool:
    """The colligation has peeled sections and every point has |z| <= 1."""
    return col._sections is not None and bool(
        (np.hypot(points.real, points.imag) <= 1.0).all()
    )


def apply_state_gauge(col: UnitaryColligation, V: np.ndarray) -> UnitaryColligation:
    """Conjugate by diag(1, V); the characteristic function is unchanged."""
    V = np.asarray(V, dtype=complex)
    if V.shape != (col.n, col.n):
        raise DimensionMismatch(f"gauge must be {col.n}x{col.n}, got {V.shape}")
    require_unitary(V, "gauge matrix")
    G = np.eye(col.n + 1, dtype=complex)
    G[1:, 1:] = V
    return UnitaryColligation._adopt(G.conj().T @ col.matrix @ G)


# steps per block of the time-domain recursion; a power of two, so
# matrix_power forms D^BLOCK by repeated squaring alone
BLOCK = 32


def markov_parameters(col: UnitaryColligation, m: int) -> np.ndarray:
    """First ``m`` Taylor coefficients of S at 0: A, BC, BDC, ...

    The outputs of ``simulate_time_domain`` on an impulse of length m, so
    an impulse response equals them bit for bit.  A count that is a bool
    or not an integer raises DimensionMismatch.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise DimensionMismatch(
            f"coefficient count must be a non-negative integer, got {m!r}"
        )
    impulse = np.zeros(m, dtype=complex)
    impulse[:1] = 1.0
    return simulate_time_domain(col, impulse)[0]


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

    For sample pairs (z, zeta) inside the disc:

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
    l_z conj(l_zeta), l_zeta r_z and |r_z|^2.  On a colligation with
    peeled sections (``UnitaryColligation._sections``) whose points all
    have |w| <= 1, S, r and l come off the section chain, O(n) per point;
    otherwise r and l are taken in two batches of all the points, l as
    the solve with D^T and B.  Pairs are zipped, so the shorter sample
    list sets their number.
    """
    z = np.asarray(z_samples, dtype=complex)
    zeta = np.asarray(zeta_samples, dtype=complex)
    count = min(len(z), len(zeta))
    z, zeta = z[:count], zeta[:count]
    points = np.concatenate([z, zeta])
    if _on_the_chain(col, points):
        s, r, l = _section_chain(col, points)
    else:
        r = _resolvent_apply(col.D, points, col.C)
        l = _resolvent_apply(col.D.T, points, col.B)
        s = col.A + points * (r @ col.B)
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

    Each sample set is one batch: folded from the peeled sections in
    numpy's arithmetic when the colligation has them (every sample has
    |z| <= 1), else by ``characteristic_function``, where a pole on the
    circle makes the deviation inf.
    """

    def values(points):
        if _on_the_chain(col, points):
            return _fold(col._sections, points)
        return characteristic_function(col, points)

    disc = values(disc_samples(disc_count, radius=0.99))
    disc_excess = np.max(np.abs(disc) - 1.0, initial=0.0)
    try:
        circle = values(circle_samples(circle_count))
        circle_dev = np.abs(np.abs(circle) - 1.0).max(initial=0.0)
    except NearPole:
        circle_dev = np.inf
    return float(disc_excess), float(circle_dev)
