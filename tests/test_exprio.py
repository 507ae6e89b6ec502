"""Expression grammar, canonical serialization, and JSON documents."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cohdual.algebra import Element, ModuleShape, TruncationBox, monomial
from cohdual.cech import verify_realization
from cohdual.duality import pairing_perfection_check, regular_on_dual_check
from cohdual.exprio import (
    ParseError,
    SchemaError,
    certificate_from_document,
    certificate_to_document,
    default_variable_names,
    delta_from_document,
    delta_to_document,
    element_from_document,
    element_to_document,
    pairing_to_document,
    parse_element,
    read_document,
    realization_to_document,
    regularity_to_document,
    serialize_element,
    shift_search_to_document,
    table_to_document,
    write_document,
)
from cohdual.fields import Fp, PrimeField, RATIONAL
from cohdual.independence import (
    DeltaSequence,
    delta,
    independence_certificate,
    make_d,
    shift_equiv_window,
)
from conftest import random_sample

S2 = ModuleShape.series_shape(2)
D2 = ModuleShape(("series", "inverse"))
BOX = TruncationBox.uniform(2, 5)


def test_default_names():
    assert default_variable_names(1) == ("X",)
    assert default_variable_names(2) == ("X", "Y")
    assert default_variable_names(3) == ("X", "Y", "Z")
    assert default_variable_names(4) == ("X1", "X2", "X3", "X4")
    with pytest.raises(ValueError):
        default_variable_names(0)


def test_parse_basic_forms():
    e = parse_element("3/2*X^2*Y - X + 4", S2, BOX)
    assert e.term_map() == {(2, 1): Fraction(3, 2), (1, 0): Fraction(-1),
                            (0, 0): Fraction(4)}
    assert parse_element("0", S2, BOX).is_zero
    assert parse_element("X + X", S2, BOX).term_map() == {(1, 0): Fraction(2)}
    assert parse_element("X - X", S2, BOX).is_zero
    assert parse_element("-X", S2, BOX).coefficient((1, 0)) == -1


def test_parse_implicit_multiplication_and_whitespace():
    a = parse_element("2X Y", S2, BOX)
    b = parse_element("2 * X * Y", S2, BOX)
    assert a == b
    assert parse_element("X^2X", S2, BOX).term_map() == {(3, 0): Fraction(1)}
    assert parse_element(" Y ^ 2 ", S2, BOX).term_map() == {(0, 2): Fraction(1)}


def test_parse_inverse_exponents():
    e = parse_element("1 + Y^-1*X + Y^-4*X^2", D2, BOX)
    assert e.term_map() == {(0, 0): Fraction(1), (1, -1): Fraction(1),
                            (2, -4): Fraction(1)}


def test_parse_prime_field_scalars():
    f7 = PrimeField(7)
    e = parse_element("3/2*X", S2, BOX, f7)
    assert e.coefficient((1, 0)) == Fp(5, 7)
    assert parse_element("7*X", S2, BOX, f7).is_zero


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_element("X + Y^-1", S2, BOX)
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_element("Y^2", D2, BOX)
    assert info.value.position == 0
    with pytest.raises(ParseError) as info:
        parse_element("X^9", S2, BOX)
    assert info.value.position == 0
    with pytest.raises(ParseError) as info:
        parse_element("2*3", S2, BOX)
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_element("X2", S2, BOX)
    assert info.value.position == 1
    with pytest.raises(ParseError):
        parse_element("", S2, BOX)
    with pytest.raises(ParseError):
        parse_element("X +", S2, BOX)
    with pytest.raises(ParseError):
        parse_element("1/", S2, BOX)
    with pytest.raises(ParseError):
        parse_element("X^", S2, BOX)


def test_parse_prime_field_bad_denominator():
    with pytest.raises(ParseError):
        parse_element("1/7*X", S2, BOX, PrimeField(7))


def test_serialize_canonical_form():
    d = make_d(2, 1, TruncationBox((5, 25)))
    assert serialize_element(d) == "1 + Y^-1*X"
    assert serialize_element(Element.zero(S2, BOX)) == "0"
    e = Element.from_terms(S2, BOX, {(1, 0): -1, (0, 0): Fraction(3, 2)})
    assert serialize_element(e) == "3/2 - X"
    lead = Element.from_terms(S2, BOX, {(1, 0): -2})
    assert serialize_element(lead) == "-2*X"
    f7 = PrimeField(7)
    mod = Element.from_terms(S2, BOX, {(1, 0): Fp(6, 7)})
    assert serialize_element(mod) == "6*X"


def test_serialize_orders_inverse_factors_first():
    shape = ModuleShape(("inverse", "series", "inverse"))
    box = TruncationBox.uniform(3, 4)
    e = monomial(shape, box, (-1, 2, -3), 2)
    assert serialize_element(e) == "2*X^-1*Z^-3*Y^2"


def test_text_roundtrip_sampled():
    rng = random.Random(97)
    f7 = PrimeField(7)
    for _ in range(120):
        n = rng.randint(1, 4)
        shape = ModuleShape(tuple(rng.choice(("series", "inverse"))
                                  for _ in range(n)))
        box = TruncationBox(tuple(rng.randint(0, 5) for _ in range(n)))
        field = rng.choice((RATIONAL, f7))
        e = random_sample(rng, shape, box)
        if field is not RATIONAL:
            e = e.scale(f7.one)
        text = serialize_element(e)
        assert parse_element(text, shape, box, field) == e


def test_element_document_roundtrip():
    e = Element.from_terms(D2, BOX, {(2, -3): Fraction(5, 4), (0, 0): Fraction(-1)})
    doc = element_to_document(e)
    restored = element_from_document(doc)
    assert restored == e
    assert restored.exact
    lossy = replace(e, exact=False)
    restored = element_from_document(element_to_document(lossy))
    assert restored == lossy
    assert not restored.exact


def test_element_document_field_mismatch():
    f7 = PrimeField(7)
    e = Element.from_terms(S2, BOX, {(1, 0): Fp(3, 7)})
    assert element_from_document(element_to_document(e, f7)) == e
    with pytest.raises(ValueError):
        element_to_document(e, RATIONAL)


def test_document_schema_validation():
    e = monomial(S2, BOX, (1, 0))
    doc = element_to_document(e)
    wrong = dict(doc, schema="other/9")
    with pytest.raises(SchemaError):
        element_from_document(wrong)
    wrong = dict(doc, kind="table")
    with pytest.raises(SchemaError):
        element_from_document(wrong)
    wrong = dict(doc)
    del wrong["terms"]
    with pytest.raises(SchemaError):
        element_from_document(wrong)
    wrong = dict(doc, shape=["series", "diagonal"])
    with pytest.raises(SchemaError):
        element_from_document(wrong)


def test_documents_reject_non_integer_json():
    doc = element_to_document(monomial(D2, BOX, (1, -1)))
    for bad in (True, 2.5, "2", None):
        with pytest.raises(SchemaError):
            element_from_document(dict(doc, box=[bad, 5]))
        term = {"exponents": [1, bad], "coefficient": "1"}
        with pytest.raises(SchemaError):
            element_from_document(dict(doc, terms=[term]))
    cert = certificate_to_document(
        independence_certificate((monomial(S2, TruncationBox((1, 1)), (0, 0)),), 8))
    with pytest.raises(SchemaError):
        certificate_from_document(dict(cert, box=[8, True]))


def test_rational_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        RATIONAL.parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_element("3/0*X", S2, BOX)


def test_write_and_read_document(tmp_path):
    e = monomial(D2, BOX, (1, -1), 2)
    doc = element_to_document(e)
    path = tmp_path / "element.json"
    payload = write_document(doc, path)
    assert path.read_bytes() == payload
    assert payload.endswith(b"\n")
    assert read_document(path) == doc
    assert write_document(doc) == payload

    path.write_text("not json")
    with pytest.raises(SchemaError):
        read_document(path)
    path.write_text(json.dumps({"schema": "slides/2"}))
    with pytest.raises(SchemaError):
        read_document(path)


def test_report_documents_carry_their_fields():
    table_doc = table_to_document(verify_realization(1, 1, 2).table)
    assert table_doc["kind"] == "cohomology_table"
    assert len(table_doc["entries"]) == 5

    real_doc = realization_to_document(verify_realization(1, 1, 2))
    assert real_doc["passed"] is True
    assert real_doc["nonzero_count"] == 2

    pair_doc = pairing_to_document(pairing_perfection_check(1, 1, 2))
    assert pair_doc["passed"] is True
    assert pair_doc["pair_count"] == 9
    assert len(pair_doc["permutation"]) == 3

    reg_doc = regularity_to_document(regular_on_dual_check(2, 1, 2))
    assert reg_doc["passed"] is True
    assert reg_doc["steps"][0]["kernel_dim"] == 0
    assert reg_doc["final_roles"] == ["inverse"]


def test_delta_and_shift_documents():
    seq = DeltaSequence(1, (0, None, -4))
    doc = delta_to_document(seq)
    assert doc["entries"] == [0, None, -4]
    assert delta_from_document(doc) == seq
    assert json.loads(write_document(doc))["entries"] == [0, None, -4]

    profile = delta(make_d(2, 10))
    found = shift_equiv_window(profile, profile, 2)
    doc = shift_search_to_document(found)
    assert doc["status"] == "witness"
    assert doc["witness"] == {"shift_left": 0, "shift_right": 0, "offset": 0}


def test_certificate_document_roundtrip():
    one = monomial(S2, TruncationBox.uniform(2, 3), (0, 0))
    y = monomial(S2, TruncationBox.uniform(2, 3), (0, 1))
    cert = independence_certificate((one, y), 12)
    doc = certificate_to_document(cert)
    restored = certificate_from_document(doc)
    assert restored == cert
    assert restored.delta.entries == cert.delta.entries
    assert restored.decomposition.g == cert.decomposition.g
    with pytest.raises(SchemaError):
        certificate_from_document(dict(doc, kind="element"))
