"""Exact desk-scale computations with truncated local cohomology modules
and their Matlis duals.

The package works with finite truncations of modules that are products of
power-series directions and inverse-polynomial directions.  On top of the
basic algebra it provides degreewise cohomology of the standard covering
complex, the socle pairing against the dual shape, minimal-exponent
profiles, and window certificates that finite combinations of a family of
dual elements are nonzero and linearly independent.

``import cohdual`` loads no submodule.  Each exported name is looked up
in its submodule when it is used (PEP 562), so a script or a CLI request
compiles and runs only the modules it needs.  Only the submodule's
qualified name is worked out in advance; the attribute is read on every
access and never cached here, so ``cohdual.ring_act`` is always the
submodule's current attribute.
"""

import sys
from importlib import import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "algebra": (
        "INVERSE", "SERIES", "Element", "ModuleShape", "TruncationBox",
        "derivation_act", "linear_combine", "matlis_pair", "monomial",
        "quotient_by_series_var", "ring_act",
    ),
    "cech": (
        "CohomologyTable", "RealizationReport", "cech_dims_at_degree",
        "identify_basis", "realization_support", "verify_realization",
    ),
    "checks": ("CheckLine", "CheckReport", "run_suite", "suite_names"),
    "duality": (
        "GAMMA_FULL", "GAMMA_ZERO", "PairingReport", "RegularityReport",
        "gamma_of_shape", "is_torsion", "pairing_perfection_check",
        "regular_on_dual_check", "socle_functional", "tensor_surjectivity_witness",
    ),
    "exprio": (
        "ParseError", "SchemaError", "element_from_document", "element_to_document",
        "from_document", "parse_element", "read_document", "serialize_element",
        "to_document", "write_document",
    ),
    "fields": ("Fp", "PrimeField", "RATIONAL", "RationalField", "field_from_descriptor"),
    "independence": (
        "DegenerateInputError", "DeltaSequence", "InconclusiveWindowError",
        "IndependenceCertificate", "InexactElementError", "RDecomposition",
        "ShiftSearch", "ShiftWitness", "auto_truncation", "decompose_r", "delta",
        "fit_shift_form", "independence_certificate", "make_d", "shift_equiv_window",
    ),
}

# exported name -> the qualified name of its submodule, built once
_SOURCE = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    qualified = _SOURCE.get(name)
    if qualified is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules.get is ~15x cheaper than import_module
    return getattr(sys.modules.get(qualified) or import_module(qualified), name)


def __dir__():
    return sorted({*globals(), *__all__})
