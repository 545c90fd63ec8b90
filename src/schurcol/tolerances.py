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
