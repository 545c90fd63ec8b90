"""Numerical margins used across the package.

All values are calibrated for double precision at desk scale
(degrees up to ~16).  Construction-time checks always use these
constants; command-line overrides affect diagnostics only.
"""

# relative coefficient magnitude below which a polynomial entry is noise
TRIM = 1e-11

# margin for strict contractivity: |s| < 1 - DISC
DISC = 1e-9

# margin for unimodularity: ||s| - 1| <= UNIT
UNIT = 1e-9

# denominator / feedback-loop singularity guard
POLE = 1e-12

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
