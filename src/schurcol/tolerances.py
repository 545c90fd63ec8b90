"""Numerical margins used across the package.

All values are calibrated for double precision at desk scale
(degrees up to ~16) and cannot be overridden.  Each rule on DISC, UNIT
and POLE is the predicate next to its margin; NaN and +-inf fail all three.
"""

import math

import numpy as np

# relative coefficient magnitude below which a polynomial entry is noise
TRIM = 1e-11

# margin for strict contractivity: |s| < 1 - DISC
DISC = 1e-9


def inside_disc(x) -> bool:
    return bool(abs(x) < 1.0 - DISC)


# margin for unimodularity: ||s| - 1| <= UNIT
UNIT = 1e-9


def on_circle(x) -> bool:
    return bool(abs(abs(x) - 1.0) <= UNIT)


# singularity guard: |denominator| or |1 - s22 omega| at most POLE, or a
# solve of (I - z D) x = rhs with max|x| > max|rhs| / POLE (for a
# contraction D only within about sqrt(n) * POLE of the unit circle)
POLE = 1e-12


def clear_of_pole(x):
    """A bool for one value; for an array, its elementwise verdicts."""
    if np.ndim(x) == 0:
        return bool(POLE < abs(x) < math.inf)
    magnitude = np.abs(x)
    return (POLE < magnitude) & (magnitude < math.inf)


# sampled inner-function check
INNER = 1e-9

# round-trip and cross-route comparisons
ROUND = 1e-8

# backward error of the state-space recursion: max |S_rec - S| over at
# least 4(n + 1) roots of unity, S_rec built from the recovered parameters
BACKWARD = 1e-8

# the four kernel identities of `schurcol verify`, at sample pairs with
# |z|, |zeta| <= 0.9
SPECTRAL = 1e-10


# readout residual sqrt(|H - closed(peel(H))|_1 |H - closed(peel(H))|_inf),
# an O(n^2) bound on the 2-norm, of a lower form H whose S, r and l `verify`
# reads off its peeled sections.  At |z| <= 0.9, ||(I - zD)^{-1}|| <= 10, so
# to first order a readout delta moves S by at most (1 + |l|)(1 + |r|) delta
# <= 121 delta and r and l by at most 100 delta: each identity by O(100
# delta), which READOUT keeps within SPECTRAL at every degree.  Closed forms
# of random parameters read out to 7.2e-15 or less up to n = 1024 (|s| <=
# 0.999), and 12 zeros clustered at 0.97 (kappa 1e17) to 2.8e-14
READOUT = 1e-12


# max-norm unitarity residual
UNITARY = 1e-10

# energy balance of time-domain simulation
ENERGY = 1e-10

# intertwining residual of a state-space equivalence
EQUIV = 1e-9

# Hessenberg structural zeros, relative to max |entry|
STRUCT = 1e-12

# equal-norm condition for row matching
NORM = 1e-9

# minimality threshold: every band entry of the lower Hessenberg form
# above max(n+1, 8) * RANK_REL * max |entry|
RANK_REL = 1e-10
