"""Rational inner functions as unitary colligations.

Three equivalent descriptions of a finite Blaschke product are kept in
lockstep: the zero set, the Schur parameter sequence, and the unitary
(n+1) x (n+1) colligation matrix whose characteristic function the
product is.  The package converts between them, runs the Schur
recursion both on coefficients and directly on colligation matrices,
couples systems in feedback, reduces matrices to the special lower
Hessenberg normal form, which decides minimality and state
equivalence, and builds the kernel-space model realization.
"""

from .colligation import (
    SpectralIdentityReport,
    UnitaryColligation,
    apply_state_gauge,
    characteristic_function,
    inner_sampling_report,
    intertwining_residual,
    markov_parameters,
    simulate_time_domain,
    unitarity_residual,
    verify_spectral_identities,
)
from .errors import (
    DegreeDropFailure,
    DimensionMismatch,
    DiscViolation,
    FeedbackSingular,
    InternalInconsistency,
    NearPole,
    NotMinimal,
    NotSimple,
    NotUnitary,
    SchurColError,
    Terminal,
    UnitViolation,
)
from .hessenberg import (
    HessenbergCertificate,
    band_residual,
    find_equivalence,
    is_minimal,
    reduce_to_special_lower_hessenberg,
    reduce_to_special_upper_hessenberg,
)
from .rational import (
    BlaschkeProduct,
    RationalInner,
    SchurParameterSequence,
    blaschke_to_rational,
    from_schur_parameters,
    inverse_schur_transform,
    rational_to_blaschke,
    schur_parameters,
    schur_transform,
)
from .realization import model_colligation
from .redheffer import (
    PartitionedColligation,
    SchurSection,
    characteristic_matrix,
    elementary_schur_section,
    inverse_schur_colligation,
    redheffer_product,
    redheffer_transform,
)
from .schur_state import (
    SchurStateTrace,
    closed_form_matrix,
    colligation_from_schur_parameters,
    product_form_matrix,
    readout_residual,
    schur_algorithm_state_space,
)

__version__ = "0.1.0"
