"""Numerical margins used across the package.

All values are for double precision and cannot be overridden.  Each
comment ends with the largest degree n at which a test or a CI step
(the "Console script" step of .github/workflows/tests.yml) exercises
the constant, or says that none does.  Each rule on DISC, UNIT and POLE
is the predicate next to its margin; NaN and +-inf fail all three.
"""

import math

import numpy as np

# relative coefficient magnitude below which a polynomial entry is noise.
# n = 64: test_cli.py::TestParams::test_clustered_parameters_to_function
# and CI fold the parameters of 64 zeros clustered at 0.9, where den(0)
# falls within the trim cut and the fold fails typed (exit 3); 32 fold
TRIM = 1e-11

# margin for strict contractivity: |s| < 1 - DISC.  n = 1024: every
# parameter of test_cli.py::TestReadout::test_degree_1024_reads_out_far_below_the_bound
DISC = 1e-9


def inside_disc(x) -> bool:
    return bool(abs(x) < 1.0 - DISC)


# margin for unimodularity: ||s| - 1| <= UNIT.  n = 1024: the terminal
# parameter of the same test
UNIT = 1e-9


def on_circle(x) -> bool:
    return bool(abs(abs(x) - 1.0) <= UNIT)


# singularity guard: |denominator| or |1 - s22 omega| at most POLE; a point
# z outside the disc where |S(1/conj(z))|, the fold S is reflected from, is
# at most POLE; or a solve of (I - z D) x = rhs in `characteristic_matrix`
# with max|x| > max|rhs| / POLE (for a contraction D only within about
# sqrt(n) * POLE of the unit circle).  n = 256: the reflected rule in CI's
# `schurcol eval --z 1.5 0.5` on the gauged degree-256 form, and the
# solve's rule in test_redheffer.py::TestBatchedResolvent::
# test_memory_is_bounded_by_the_chunk.  The scalar guards only up to n = 9,
# in the coupling of the test named at COUPLING
POLE = 1e-12


def clear_of_pole(x):
    """A bool for one value; for an array, its elementwise verdicts."""
    if not isinstance(x, np.ndarray):
        return bool(POLE < abs(x) < math.inf)
    magnitude = np.abs(x)
    return (POLE < magnitude) & (magnitude < math.inf)


# sampled inner-function check.  n = 256: `unimodular_on_circle` of CI's
# `schurcol verify` on the realized and the gauged degree-256 forms
INNER = 1e-9

# backward error of the state-space recursion: max |S_rec - S| over at
# least 4(n + 1) roots of unity, S_rec built from the recovered parameters.
# The `backward_error` lines of `schurcol schur` and of `schurcol realize`
# on zeros write it.  `find_equivalence` decides "same function" by the
# same test, on the folds of two peeled parameter sequences.  n = 256: CI's
# `find_equivalence` of the degree-256 closed form and its gauged copy; the
# recursion's check up to n = 128, in
# test_acceptance.py::test_12_backward_error_at_scale and
# test_cli.py::TestSchur::test_gauged_n128_is_never_a_validation_failure
BACKWARD = 1e-8

# the four kernel identities of `schurcol verify`, at sample pairs with
# |z|, |zeta| <= 0.9.  n = 256: CI's `schurcol verify` on the realized and
# the gauged degree-256 forms
SPECTRAL = 1e-10

# `contractive_on_disc` of `schurcol verify`: max(|S| - 1) over the disc
# samples.  n = 256: the same two CI runs
CONTRACTIVE = 1e-10

# `coupling_consistency` of `schurcol couple`: |S - the Redheffer transform
# of the factors' values| at the samples.  n = 9 (a section and a degree-8
# closed form): test_cli.py::TestResidualsTakenOnce::
# test_couple_takes_the_coupled_residual_once
COUPLING = 1e-10


# readout residual sqrt(|H - closed(peel(H))|_1 |H - closed(peel(H))|_inf),
# an O(n^2) bound on the 2-norm, of a lower form H whose S, r and l `verify`
# reads off its peeled sections (of its first block where H splits).  At
# |z| <= 0.9, ||(I - zD)^{-1}|| <= 10, so
# to first order a readout delta moves S by at most (1 + |l|)(1 + |r|) delta
# <= 121 delta and r and l by at most 100 delta: each identity by O(100
# delta), which READOUT keeps within SPECTRAL at every degree.  Closed forms
# of random parameters read out to 7.2e-15 or less up to n = 1024 (|s| <=
# 0.999), and 12 zeros clustered at 0.97 (kappa 1e17) to 2.8e-14.  n = 1024:
# test_cli.py::TestReadout::test_degree_1024_reads_out_far_below_the_bound
READOUT = 1e-12


# max-norm unitarity residual max|U*U - I| of an (n+1) x (n+1) U.  UU* - I
# has the same singular values, so one Gram product bounds both sides'
# 2-norm by (n + 1) * UNITARY.  n = 256: CI's `schurcol realize` of the
# degree-256 parameters
UNITARY = 1e-10

# intertwining residual of a state-space equivalence: `find_equivalence`'s
# first test, sufficient but not necessary (the fold at BACKWARD decides
# when it fails).  n = 256: CI's `find_equivalence` step, whose gauge misses
# it and is accepted by the fold
EQUIV = 1e-9

# Hessenberg structural zeros, relative to max |entry|: the Arnoldi
# breakdown cut.  n = 256:
# test_hessenberg.py::TestInPlaceReduction::test_certificate_holds_at_scale;
# breakdowns only up to n = 64 (TestBreakdownRule::test_near_unimodular_parameter)
STRUCT = 1e-12

# the two residuals of a Hessenberg certificate: the gauge's unitarity
# max|V*V - I|, and max|G* M G - H| relative to max|M|.  A basis that lost orthogonality fails
# it; with two Gram-Schmidt passes both read at most 8.9e-16 on the gauged
# draws of test_hessenberg.py::TestInPlaceReduction::test_certificate_holds_at_scale,
# n = 256 the largest, as on CI's `schurcol hessenberg` in both orientations
# on the gauged degree-256 form
CERTIFICATE = 1e-11

# minimality threshold: every band entry of the lower Hessenberg form
# above max(n+1, 8) * RANK_REL * max |entry|.  n = 256: `band_minimum` of
# CI's `schurcol realize` of the degree-256 parameters
RANK_REL = 1e-10
