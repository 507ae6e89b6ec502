"""Exact desk-scale computations with truncated local cohomology modules
and their Matlis duals.

The package works with finite truncations of modules that are products of
power-series directions and inverse-polynomial directions.  On top of the
basic algebra it provides degreewise cohomology of the standard covering
complex, the socle pairing against the dual shape, minimal-exponent
profiles, and window certificates that finite combinations of a family of
dual elements are nonzero and linearly independent.
"""

from .algebra import (
    INVERSE,
    SERIES,
    Element,
    ModuleShape,
    TruncationBox,
    derivation_act,
    linear_combine,
    monomial,
    quotient_by_series_var,
    ring_act,
)
from .cech import (
    CohomologyTable,
    RealizationReport,
    cech_dims_at_degree,
    identify_basis,
    realization_support,
    verify_realization,
)
from .checks import CheckLine, CheckReport, run_suite, suite_names
from .duality import (
    GAMMA_FULL,
    GAMMA_ZERO,
    PairingReport,
    RegularityReport,
    gamma_of_shape,
    is_torsion,
    matlis_pair,
    pairing_perfection_check,
    regular_on_dual_check,
    socle_functional,
    tensor_surjectivity_witness,
)
from .exprio import (
    ParseError,
    SchemaError,
    element_from_document,
    element_to_document,
    from_document,
    parse_element,
    read_document,
    serialize_element,
    to_document,
    write_document,
)
from .fields import Fp, PrimeField, RATIONAL, RationalField, field_from_descriptor
from .independence import (
    CertificateError,
    DegenerateInputError,
    DeltaSequence,
    InconclusiveWindowError,
    IndependenceCertificate,
    InexactElementError,
    RDecomposition,
    ShiftSearch,
    ShiftWitness,
    auto_truncation,
    decompose_r,
    delta,
    fit_shift_form,
    independence_certificate,
    make_d,
    shift_equiv_window,
)

__version__ = "0.1.0"
