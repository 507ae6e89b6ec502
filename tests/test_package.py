"""The package's lazy exports and the modules each kind of request loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohdual

# the names the package exported when __init__ imported every submodule
EAGER_EXPORTS = (
    "INVERSE", "SERIES", "Element", "ModuleShape", "TruncationBox",
    "derivation_act", "linear_combine", "monomial", "quotient_by_series_var",
    "ring_act",
    "CohomologyTable", "RealizationReport", "cech_dims_at_degree",
    "identify_basis", "realization_support", "verify_realization",
    "CheckLine", "CheckReport", "run_suite", "suite_names",
    "GAMMA_FULL", "GAMMA_ZERO", "PairingReport", "RegularityReport",
    "gamma_of_shape", "is_torsion", "matlis_pair", "pairing_perfection_check",
    "regular_on_dual_check", "socle_functional", "tensor_surjectivity_witness",
    "ParseError", "SchemaError", "element_from_document", "element_to_document",
    "from_document", "parse_element", "read_document", "serialize_element",
    "to_document", "write_document",
    "Fp", "PrimeField", "RATIONAL", "RationalField", "field_from_descriptor",
    "DegenerateInputError", "DeltaSequence",
    "InconclusiveWindowError", "IndependenceCertificate", "InexactElementError",
    "RDecomposition", "ShiftSearch", "ShiftWitness", "auto_truncation",
    "decompose_r", "delta", "fit_shift_form", "independence_certificate",
    "make_d", "shift_equiv_window",
)


def test_all_lists_the_eager_exports():
    assert sorted(cohdual.__all__) == sorted(EAGER_EXPORTS)
    assert len(cohdual.__all__) == len(set(cohdual.__all__))


def test_every_export_resolves_to_its_submodule_object():
    listed = dir(cohdual)
    for name in cohdual.__all__:
        value = getattr(cohdual, name)
        module = sys.modules[cohdual._SOURCE[name]]
        assert value is getattr(module, name)
        assert name in listed
    assert "__version__" in listed


def test_exports_are_read_through_on_every_access(monkeypatch):
    import cohdual.algebra as algebra

    def replacement(r, m):
        return m

    monkeypatch.setattr(algebra, "ring_act", replacement)
    assert cohdual.ring_act is replacement
    assert "ring_act" not in vars(cohdual)


def test_a_wrapper_set_after_the_first_access_is_returned(monkeypatch):
    """The submodule is read from ``sys.modules`` once imported, and its
    attribute is looked up on every access: a wrapper set on the submodule
    after the package has already served the name is what it serves next."""
    import cohdual.independence as independence

    first = cohdual.independence_certificate
    assert first is independence.independence_certificate

    def wrapper(r_list, lmax):
        return first(r_list, lmax)

    monkeypatch.setattr(independence, "independence_certificate", wrapper)
    assert cohdual.independence_certificate is wrapper
    assert "independence_certificate" not in vars(cohdual)
    monkeypatch.undo()
    assert cohdual.independence_certificate is first


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cohdual.nope
    assert not hasattr(cohdual, "_not_exported")


PROBE = """
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("cohdual"))))
"""

RUN_CLI = """
import cohdual.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cohdual.cli.main({argv!r})
assert code == 0, code
"""

ELEMENT_DOCUMENT = """
from cohdual.algebra import ModuleShape, TruncationBox
from cohdual.exprio import from_document, parse_element, to_document
shape, box = ModuleShape(("series", "inverse")), TruncationBox((3, 3))
element = parse_element("1 + Y^-1*X", shape, box)
assert from_document(json.loads(json.dumps(to_document(element)))) == element
"""

PAIRING_DOCUMENT = """
from cohdual.exprio import from_document
report = from_document({"schema": "cohdual/1", "kind": "pairing_check", "nvars": 2,
                        "index": 1, "bound": 2, "pair_count": 0, "permutation": [],
                        "passed": True})
assert type(report).__name__ == "PairingReport"
"""

BASE = ["cohdual", "cohdual.algebra", "cohdual.cli", "cohdual.exprio", "cohdual.fields"]
DUALITY = sorted(BASE + ["cohdual.duality"])
INDEPENDENCE = sorted(BASE + ["cohdual.independence"])

LOADED = [
    ("import", "import cohdual", ["cohdual"]),
    ("element-document", ELEMENT_DOCUMENT,
     ["cohdual", "cohdual.algebra", "cohdual.exprio", "cohdual.fields"]),
    ("pairing-document", PAIRING_DOCUMENT,
     ["cohdual", "cohdual.algebra", "cohdual.duality", "cohdual.exprio", "cohdual.fields"]),
    ("parser", "import cohdual, cohdual.cli; cohdual.cli.build_parser()", BASE),
    ("act", RUN_CLI.format(argv=["act", "Y", "1 + Y^-1*X"]), BASE),
    ("derive", RUN_CLI.format(argv=["derive", "-j", "1", "1 + Y^-1*X"]), BASE),
    ("pair", RUN_CLI.format(argv=["pair", "X^-1*Y^-2", "X*Y^2", "--shape", "R",
                                  "-n", "2"]), DUALITY),
    ("gamma", RUN_CLI.format(argv=["gamma", "--shape", "E", "-n", "2",
                                   "--gens", "0,1"]), DUALITY),
    ("dfam", RUN_CLI.format(argv=["dfam", "--power", "2", "--lmax", "3"]), INDEPENDENCE),
    ("delta", RUN_CLI.format(argv=["delta", "1 + Y^-1*X", "--mode", "human"]),
     INDEPENDENCE),
    ("indep", RUN_CLI.format(argv=["indep", "1", "Y", "--lmax", "12"]), INDEPENDENCE),
]


@pytest.mark.parametrize("code, expected", [case[1:] for case in LOADED],
                         ids=[case[0] for case in LOADED])
def test_requests_load_only_the_modules_they_use(code, expected):
    env = dict(os.environ)
    env.pop("COHDUAL_CONFIG", None)
    src = str(Path(cohdual.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", PROBE.format(code=code)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected


def test_the_package_imports_no_generated_code():
    """Every value and report class is a NamedTuple, so importing the CLI
    and the checks loads neither ``dataclasses`` nor the ``inspect`` it
    brings (``-S``: no site module loads them first)."""
    src = str(Path(cohdual.__file__).resolve().parents[1])
    code = ("import sys, cohdual.cli, cohdual.checks; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
