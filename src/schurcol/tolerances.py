"""Numerical margins used across the package.

All values are calibrated for double precision at desk scale
(degrees up to ~16) and cannot be overridden.  Each rule on DISC, UNIT
and POLE is the predicate next to its margin; NaN and +-inf fail all three.
"""

import math

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


def clear_of_pole(x) -> bool:
    return bool(POLE < abs(x) < math.inf)


# sampled inner-function check
INNER = 1e-9

# round-trip and cross-route comparisons
ROUND = 1e-8

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

# minimal pairwise separation of zeros for the Pick-matrix reference
# `realization.kernel_basis`; the model realization itself needs none
SEP = 1e-4

# scale-aware rank threshold: sigma > max(n+1, 8) * RANK_REL * sigma_max
RANK_REL = 1e-10
