"""Expression grammar, canonical serialization, and JSON documents."""

import hashlib
import importlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cohdual.algebra import INVERSE, SERIES, Element, ModuleShape, TruncationBox, monomial, ring_act
from cohdual.cech import verify_realization
from cohdual.checks import DEFAULT_SEED, CheckReport, independence_trials, run_suite
from cohdual.duality import pairing_perfection_check, regular_on_dual_check
from cohdual.exprio import (
    ParseError,
    SchemaError,
    default_variable_names,
    element_from_document,
    element_to_document,
    from_document,
    parse_element,
    read_document,
    serialize_element,
    to_document,
    write_document,
)
from cohdual.fields import Fp, PrimeField, RATIONAL, field_from_descriptor
from cohdual.independence import (
    DeltaSequence,
    decompose_r,
    delta,
    independence_certificate,
    make_d,
    shift_equiv_window,
)
from conftest import oracle_parse_element, random_sample

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


def test_an_exponent_past_the_digit_limit_is_a_parse_error():
    """An exponent too long for ``int`` is refused at its factor, with the
    interpreter's message, as an over-long coefficient is at its term."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string digit limit")
    digits = "1" * (limit + 1)
    with pytest.raises(ValueError) as too_long:
        int(digits)
    with pytest.raises(ParseError) as refused:
        parse_element("X + Y^" + digits, S2, BOX)
    assert str(refused.value) == f"{too_long.value} (at position 4)"
    assert refused.value.position == 4


def test_parse_prime_field_bad_denominator():
    with pytest.raises(ParseError):
        parse_element("1/7*X", S2, BOX, PrimeField(7))


def test_serialize_canonical_form():
    d = make_d(2, 1, TruncationBox((5, 25)))
    assert serialize_element(d) == "1 + Y^-1*X"
    assert serialize_element(Element.zero(S2, BOX, RATIONAL)) == "0"
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
        e = random_sample(rng, shape, box, field=field)
        text = serialize_element(e)
        assert parse_element(text, shape, box, field) == e


def test_element_document_roundtrip():
    e = Element.from_terms(D2, BOX, {(2, -3): Fraction(5, 4), (0, 0): Fraction(-1)})
    doc = element_to_document(e)
    restored = element_from_document(doc)
    assert restored == e
    assert restored.exact
    lossy = e._replace(exact=False)
    restored = element_from_document(element_to_document(lossy))
    assert restored == lossy
    assert not restored.exact


@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", range(1, 6))
def test_element_documents_name_the_variables_by_count(n, field):
    shape = ModuleShape.cohomology_shape(n, (n + 1) // 2)
    box = TruncationBox.uniform(n, 2)
    exps = tuple(-1 if role == "inverse" else 1 for role in shape.roles)
    e = Element.from_terms(shape, box, {exps: field.from_int(3), (0,) * n: field.from_int(-1)})
    doc = element_to_document(e)
    assert doc["field"] == field.descriptor
    assert doc["names"] == list(default_variable_names(n))
    assert all(name in doc["text"] for name in doc["names"])
    assert parse_element(doc["text"], shape, box, field) == e
    payload = write_document(doc)
    restored = element_from_document(json.loads(payload))
    assert write_document(element_to_document(restored)) == payload


def test_element_document_field_mismatch():
    """A document names its element's field; a coefficient of another
    field cannot enter the element in the first place."""
    f7 = PrimeField(7)
    e = Element.from_terms(S2, BOX, {(1, 0): Fp(3, 7)})
    doc = element_to_document(e)
    assert doc["field"] == "prime:7"
    assert element_from_document(doc) == e
    rational = dict(doc, field="rational")
    assert element_from_document(rational) != e
    assert element_from_document(rational).field == RATIONAL
    with pytest.raises(ValueError, match="^mixed coefficient fields: prime:7 and rational$"):
        Element.from_terms(S2, BOX, {(1, 0): Fp(3, 7)}, field=RATIONAL)
    assert element_to_document(e._replace(exact=False))["field"] == f7.descriptor


def _text_membership(field, coeff):
    """The membership test the writer once made: a round trip through text."""
    try:
        return field.parse_scalar(str(coeff)) == coeff
    except ValueError:
        return False


@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7), PrimeField(32003)],
                         ids=["Q", "GF7", "GF32003"])
def test_element_documents_accept_what_the_text_round_trip_accepted(field):
    """A frame admits, by exact type, the coefficients that the text round
    trip admitted, and its document writes them as the field reads them
    back; what it refuses, bool and float included, is refused with a
    ValueError when the element is built."""
    values = (0, 3, -3, 7, -14, 2 ** 70, Fraction(3, 2), Fraction(-5), Fraction(4, 1),
              Fp(3, 7), Fp(0, 7), Fp(3, 5), Fp(5, 32003), True, False, 1.0, 2.5, "3")
    for coeff in values:
        if not _text_membership(field, coeff):
            with pytest.raises(ValueError):
                Element.from_terms(S2, BOX, {(1, 0): coeff}, field=field)
            continue
        e = Element.from_terms(S2, BOX, {(1, 0): coeff}, field=field)
        doc = element_to_document(e)
        value = field.parse_scalar(str(coeff))
        assert [t["coefficient"] for t in doc["terms"]] == ([str(value)] if value else []), coeff
        assert element_from_document(doc) == e


def test_prime_field_documents_are_canonical():
    """An element built in a GF(7) frame from ints writes reduced residues,
    and element -> document -> element -> document is byte-identical."""
    line = ModuleShape.series_shape(1)
    box = TruncationBox.uniform(1, 4)
    e = Element.from_terms(line, box, {(0,): 5, (1,): 4}, field=PrimeField(7))
    square = ring_act(e, e)
    doc = element_to_document(square)
    assert [t["coefficient"] for t in doc["terms"]] == ["4", "5", "2"]
    assert doc["text"] == "4 + 5*X + 2*X^2"
    payload = write_document(doc)
    assert write_document(element_to_document(element_from_document(json.loads(payload)))
                          ) == payload


@pytest.mark.parametrize("text", ["3\n", "3/2\n", "\n3", " 3", "3 ", "+3", "3/-2"])
@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7)], ids=["Q", "GF7"])
def test_scalars_are_read_whole(field, text):
    """A scalar is the whole text: a trailing newline is refused as well."""
    with pytest.raises(ValueError, match="not an integer or integer fraction"):
        field.parse_scalar(text)
    doc = element_to_document(monomial(S2, BOX, (1, 0), field.one))
    doc["terms"][0]["coefficient"] = text
    with pytest.raises(ValueError):
        element_from_document(doc)


# Arabic-Indic three and one, and a fullwidth three
@pytest.mark.parametrize("text", ["\u0663", "-\u0663", "1/\u0663", "1\u0661", "\uff13"])
@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7)], ids=["Q", "GF7"])
def test_scalars_take_ascii_digits_only(field, text):
    """A digit of another script is refused by the scalar reader and in an
    element document, as it is in a field descriptor."""
    with pytest.raises(ValueError, match="not an integer or integer fraction"):
        field.parse_scalar(text)
    doc = element_to_document(monomial(S2, BOX, (1, 0), field.one))
    doc["terms"][0]["coefficient"] = text
    with pytest.raises(ValueError, match="not an integer or integer fraction"):
        element_from_document(doc)


@pytest.mark.parametrize("text, message, position", [
    ("\u0663*X", "expected a term", 0),
    ("X^\u0663", "expected an integer exponent after '^'", 2),
    ("X^1\u0661", "expected '+' or '-' between terms", 3),
    ("2/\u0663*X", "expected a denominator after '/'", 2),
    ("3\u0663*X", "expected '+' or '-' between terms", 1),
    ("X \u0663", "expected '+' or '-' between terms", 2),
    ("X + \uff13", "expected a term", 4),
])
def test_expressions_take_ascii_digits_only(text, message, position):
    """Coefficients, denominators and exponents are ASCII digits: another
    script's digit is no digit, so it is where the expression stops parsing."""
    with pytest.raises(ParseError) as refused:
        parse_element(text, S2, BOX)
    assert str(refused.value) == f"{message} (at position {position})"
    assert refused.value.position == position


SPACES = ("", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000")
EDITS = ("+", "-", "*", "/", "^", "7", "0", "X", "X1", "Y", " ", "\u2003", "Q", "\u0663", "")
# pieces glued at random: adjacent signs and carets, spaced slashes, doubled
# stars, and names run into digits and into each other (X1X10, X1 then 0)
SOUP = ("+", "-", "*", "**", "/", " / ", "^", "^-", "^+", "0", "7", "12", "X", "Y", "Z",
        "X1", "X10", "X11", "X2", " ", "\u2003", "\t", "\u0663", "Q", "")
# every error class the grammar has, named by a piece of its message
PARSE_OUTCOMES = (
    "empty expression", "a coefficient may only open a term",
    "expected '+' or '-' between terms", "expected a denominator after '/'",
    "zero denominator in", "vanishes mod", "expected a variable after '*'",
    "expected an integer exponent after '^'", "cannot carry a negative exponent",
    "cannot carry a positive exponent", "expected a term",
    "falls outside the truncation box",
)


def _expression_text(rng, shape):
    """A random expression, its spacing drawn from ASCII and Unicode
    whitespace and its exponents mostly of the right sign for their
    variable; most get up to three single-character edits."""
    names = default_variable_names(shape.nvars)
    if rng.random() < 0.01:
        return rng.choice(SPACES) * rng.randint(0, 2)
    out = [rng.choice(SPACES)]
    for k in range(rng.randint(1, 4)):
        if k or rng.random() < 0.3:
            out += [rng.choice("+-"), rng.choice(SPACES)]
        if rng.random() < 0.5:
            out.append(str(rng.randint(0, 30)))
            if rng.random() < 0.3:
                out += [rng.choice(SPACES), "/", rng.choice(SPACES), str(rng.randint(0, 9))]
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                out += [rng.choice(SPACES), "*", rng.choice(SPACES)]
            j = rng.randrange(shape.nvars)
            out.append(names[j])
            if shape.roles[j] == INVERSE or rng.random() < 0.6:  # a bare name is ^1
                sign = "-" if shape.roles[j] == INVERSE else rng.choice(("", "+"))
                out += [rng.choice(SPACES), "^", rng.choice(SPACES),
                        (sign if rng.random() < 0.9 else "-+"[sign == "-"])
                        + str(rng.randint(0, 3))]
        out.append(rng.choice(SPACES))
    text = "".join(out)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        k, edit, piece = rng.randint(0, len(text)), rng.random(), rng.choice(EDITS)
        if edit < 0.4:
            text = text[:k] + piece + text[k:]
        elif edit < 0.7:
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + piece + text[k + 1:]
    return text


def _token_soup(rng, shape):
    """Up to ten pieces of ``SOUP``, mostly not a well-formed expression."""
    return "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 10)))


def _parsed(parse, text, shape, box, field):
    try:
        return "ok", tuple(parse(text, shape, box, field))
    except ParseError as exc:
        return "error", str(exc), exc.position


def test_the_parser_matches_its_first_state_machine():
    """On 6,000 seeded expressions and 20,000 token soups over 1 to 4 and 11
    variables (where X10 and X11 meet X1), both fields and Unicode
    whitespace, the parser gives the oracle's element, or a ParseError with
    its message and position; the expressions reach every error class and
    well-formed input, and so do the soups.  (The oracle lets an exponent
    past the int-string digit limit escape as a bare ValueError; no string
    here comes near it.)"""
    rng = random.Random("parser oracle")
    reached = {_expression_text: Counter(), _token_soup: Counter()}
    for count, make in ((6000, _expression_text), (20000, _token_soup)):
        for _ in range(count):
            n = rng.choice((1, 2, 3, 4, 11))
            shape = ModuleShape(tuple(rng.choice((SERIES, INVERSE)) for _ in range(n)))
            box = TruncationBox(tuple(rng.randint(1, 6) for _ in range(n)))
            field = rng.choice((RATIONAL, PrimeField(7)))
            text = make(rng, shape)
            got = _parsed(parse_element, text, shape, box, field)
            assert got == _parsed(oracle_parse_element, text, shape, box, field), text
            reached[make][next((o for o in PARSE_OUTCOMES
                                if got[0] == "error" and o in got[1]), got[0])] += 1
    for counts in reached.values():
        assert set(counts) == {"ok", *PARSE_OUTCOMES}, counts
    shaped = reached[_expression_text]
    assert shaped["ok"] >= 1000 and min(shaped.values()) >= 50, shaped


@pytest.mark.parametrize("text", ["-6/15", "007", "-0", "12/4", "5/3"])
@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7)], ids=["Q", "GF7"])
def test_scalars_keep_their_values(field, text):
    num, _, den = text.partition("/")
    assert field.parse_scalar(text) == field.from_int(int(num)) / field.from_int(int(den or 1))
    assert type(field.parse_scalar(text)) is type(field.one)


@pytest.mark.parametrize("text", ["prime: 7", "prime:+7", "prime:1_1", "prime:7 ",
                                  "prime:\u0667", "prime:", "prime:-7"])
def test_field_descriptors_take_ascii_digits_only(text):
    with pytest.raises(ValueError, match="^unknown field descriptor: "):
        field_from_descriptor(text)
    doc = dict(element_to_document(monomial(S2, BOX, (1, 0))), field=text)
    with pytest.raises(ValueError):
        element_from_document(doc)


def test_field_descriptors_still_read():
    assert field_from_descriptor("rational") is RATIONAL
    assert field_from_descriptor("prime:7") == PrimeField(7)
    assert field_from_descriptor("prime:0032003") == PrimeField(32003)
    with pytest.raises(ValueError, match="^not a prime: 9$"):
        field_from_descriptor("prime:9")


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
    cert = to_document(
        independence_certificate((monomial(S2, TruncationBox((1, 1)), (0, 0)),), 8))
    with pytest.raises(SchemaError):
        from_document(dict(cert, box=[8, True]))


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


def _json_value(rng, depth):
    """A random JSON-able value with string keys: every leaf type, escapes,
    empty and nested containers, tuples (written as lists)."""
    leaves = (None, True, False, 0, -7, 2 ** 70, 2.5, -0.0, float("inf"), "",
              "plain", 'quote " and \\\\', "tab\tline\n", "café ∃ \U0001d54f", "\x00")
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    items = [_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    kind = rng.choice((dict, list, tuple))
    if kind is dict:
        return {rng.choice(("a", "b", "Z", "é", "k\n", "10", "2")) + str(k): v
                for k, v in enumerate(items)}
    return kind(items)


def test_documents_are_written_as_json_lays_them_out():
    """The writer's bytes are ``json.dumps`` with sorted keys, indent 2, ASCII."""
    rng = random.Random("writer")
    for _ in range(2000):
        doc = {"schema": "cohdual/1", "body": _json_value(rng, 4)}
        expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
        assert write_document(doc) == expected.encode("ascii")


def test_subclasses_are_laid_out_as_their_base():
    """Named tuples and other tuple or list subclasses are written as lists,
    dict subclasses as objects, as json lays them out."""
    from collections import OrderedDict, namedtuple

    class Row(list):
        pass

    Pair = namedtuple("Pair", "left right")
    doc = {"pair": Pair(1, "a"), "nested": [Pair((), {}), OrderedDict(b=2, a=[True, None])],
           "rows": [Row(), Row([3, Pair(-1, 2)])], "tuple": (2.5, -1), "empty": OrderedDict()}
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert write_document(doc) == expected.encode("ascii")


def test_report_documents_carry_their_fields():
    table_doc = to_document(verify_realization(1, 1, 2).table)
    assert table_doc["kind"] == "cohomology_table"
    assert len(table_doc["entries"]) == 5

    real_doc = to_document(verify_realization(1, 1, 2))
    assert real_doc["passed"] is True
    assert real_doc["nonzero_count"] == 2

    pair_doc = to_document(pairing_perfection_check(1, 1, 2))
    assert pair_doc["passed"] is True
    assert pair_doc["pair_count"] == 9
    assert len(pair_doc["permutation"]) == 3

    reg_doc = to_document(regular_on_dual_check(2, 1, 2))
    assert reg_doc["passed"] is True
    assert reg_doc["steps"][0]["kernel_dim"] == 0
    assert reg_doc["final_roles"] == ["inverse"]


def test_delta_and_shift_documents():
    seq = DeltaSequence(1, (0, None, -4))
    doc = to_document(seq)
    assert doc["entries"] == [0, None, -4]
    assert from_document(doc) == seq
    assert json.loads(write_document(doc))["entries"] == [0, None, -4]

    profile = delta(make_d(2, 10))
    found = shift_equiv_window(profile, profile, 2)
    doc = to_document(found)
    assert doc["status"] == "witness"
    assert doc["witness"] == {"shift_left": 0, "shift_right": 0, "offset": 0}


def test_certificate_document_roundtrip():
    one = monomial(S2, TruncationBox.uniform(2, 3), (0, 0))
    y = monomial(S2, TruncationBox.uniform(2, 3), (0, 1))
    cert = independence_certificate((one, y), 12)
    doc = to_document(cert)
    restored = from_document(doc)
    assert restored == cert
    assert restored.delta.entries == cert.delta.entries
    assert restored.decomposition.g == cert.decomposition.g
    with pytest.raises(SchemaError):
        from_document(dict(doc, kind="element"))


def _unit(exps, coeff=1):
    return monomial(S2, TruncationBox.uniform(2, 3), exps, coeff)


def test_nested_element_documents_use_the_module_attribute(monkeypatch):
    """A wrapper set on exprio.element_to_document after the kind tables are
    built still writes the certificate's nested h and g documents."""
    import cohdual.exprio as exprio

    cert = independence_certificate((_unit((1, 0)), _unit((0, 0), 3)), 14)
    payload = write_document(to_document(cert))
    seen = []
    original = exprio.element_to_document

    def counting(element):
        seen.append(element)
        return original(element)

    monkeypatch.setattr(exprio, "element_to_document", counting)
    assert write_document(to_document(cert)) == payload
    assert seen == [cert.decomposition.h, cert.decomposition.g]


# (kind, object builder, sha256 of write_document(to_document(...))); the
# digests were taken from the per-kind writers this codec replaced
PINNED = [
    ("cohomology_table", lambda: verify_realization(2, 1, 2).table,
     "a734f11acc75c07f446bfc8acddbd9e5e23f783bb2be0b485268dba0818f0361"),
    ("realization_check", lambda: verify_realization(2, 2, 2),
     "9f809e322825c6c9b9338ad2e8625001441944befd87aadaa357b9bfd818af37"),
    ("pairing_check", lambda: pairing_perfection_check(1, 1, 2),
     "f69d9fd538eb93865875e7458ec3bb8fc788e7c3513ffef1099bff737e8ccaea"),
    ("regularity_check", lambda: regular_on_dual_check(3, 3, 2),
     "326f125d1f2868e74bb1d3755111118d7d80088a560166d0c39be48b7c5dc9bc"),
    ("delta_profile", lambda: DeltaSequence(1, (0, None, -4)),
     "ba845a99c252d50a98653b3a5ea89cbe321384fb76cd270f20d41d115334a1d3"),
    ("shift_search", lambda: shift_equiv_window(
        delta(make_d(2, 10)), delta(make_d(2, 10)), 2),
     "30b0c4c6b98fc9f56cf89f16731a5add2048c3d7af06ecb37270ffa4b7cede8b"),
    ("shift_search", lambda: shift_equiv_window(
        delta(make_d(2, 10)), delta(make_d(3, 10)), 2),
     "078f5dcf3de501ed417c797073ad2f39c18dbbac65a393737b0b47d13cfb8bb8"),
    ("independence_certificate", lambda: independence_certificate(
        (_unit((1, 0), Fp(1, 32003)), _unit((0, 0), Fp(3, 32003))), 14),
     "2f784b9982f71fb1152eb3c04ae31c300fad5afc3a4e978d29a9bcc4b6f8d88b"),
    ("check_report", lambda: CheckReport(
        "probe", 5, (independence_trials(seed=5, trials=10, lmax=12),), True),
     "e72d7ef1360df74efbbda7d2f6cd6d9bcbb2688c07b44970e14d74053cedf851"),
    ("element", lambda: make_d(2, 4, field=PrimeField(7)).scale(3),
     "895adc731b99c12ae00809bed6fc0de370aa3ab8d35a349bab2e037443da9baa"),
]
PINNED_IDS = [f"{case[0]}-{k}" for k, case in enumerate(PINNED)]


@pytest.mark.parametrize("kind, build, digest", PINNED, ids=PINNED_IDS)
def test_documents_are_pinned_and_reload(kind, build, digest):
    obj = build()
    payload = write_document(to_document(obj))
    assert json.loads(payload)["kind"] == kind
    assert hashlib.sha256(payload).hexdigest() == digest
    restored = from_document(json.loads(payload))
    assert type(restored) is type(obj)
    assert write_document(to_document(restored)) == payload


def test_each_kind_is_built_by_the_module_named_for_it():
    """Each kind names its class once, as "module.Class": that class is
    defined in that cohdual module, and to_document maps its instances back
    to the kind."""
    import cohdual.exprio as exprio

    built = {kind: build() for kind, build, _ in PINNED}
    assert set(built) == set(exprio._KINDS)
    for name, kind in exprio._KINDS.items():
        module, _, qualname = kind.cls.rpartition(".")
        cls = getattr(importlib.import_module(f"cohdual.{module}"), qualname)
        assert cls.__module__ == f"cohdual.{module}"
        assert type(built[name]) is cls
        assert to_document(built[name])["kind"] == name


def test_objects_without_a_kind_are_refused():
    for obj in (3, "text", decompose_r(parse_element("Y", S2, BOX))):
        with pytest.raises(TypeError, match="no document kind"):
            to_document(obj)


def test_suite_report_bytes_are_pinned():
    """``check --suite all`` at the default seed writes exactly these bytes."""
    payload = write_document(to_document(run_suite("all", DEFAULT_SEED)))
    assert hashlib.sha256(payload).hexdigest() == (
        "5bb84a542cac0c19d6efb51f82b4d0cac64fd46173e3e03d02a34448f0094598")


@pytest.mark.parametrize("seed, digest", [
    (5, "c5ed775e49116969c624d18c5438fe050179f336af252dc0fb12681976eaaf29"),
    (701, "70af97cff28694cb80fd575a13128b51f53bb866ececa6809d831774e43101e1"),
])
def test_suite_report_bytes_are_pinned_at_more_seeds(seed, digest):
    """``check --suite all`` writes exactly these bytes at two more seeds."""
    payload = write_document(to_document(run_suite("all", seed)))
    assert hashlib.sha256(payload).hexdigest() == digest


def test_roundtrip_check_fails_when_signs_are_dropped(monkeypatch):
    """A writer that loses a negative term's sign must make the check FAIL."""
    import cohdual.checks as checks

    def unsigned(element):
        return serialize_element(element).replace(" - ", " + ").removeprefix("-")

    monkeypatch.setattr(checks, "serialize_element", unsigned)
    line = checks.roundtrip_trials(DEFAULT_SEED, trials=200)
    assert not line.passed
    assert line.detail.startswith("trial ")


def test_roundtrip_check_fails_when_the_reader_refuses_the_text(monkeypatch, capsys):
    """A writer that drops every ``^`` writes text its reader refuses; that
    FAILs the trial rather than raising, and ``cohdual check`` exits 1."""
    import cohdual.checks as checks
    from cohdual.cli import main

    monkeypatch.setattr(checks, "serialize_element",
                        lambda element: serialize_element(element).replace("^", ""))
    for seed, instances, detail in (
            (1729, 2, "trial 1: '4*X-3*Y-6 + 6*X-2*Y-3 + 5*X-2*Y-2'"),
            (5, 1, "trial 0: '-2/7*X-5*Z-3'"),
            (701, 1, "trial 0: '2*X-1*Y4*Z3'")):
        line = checks.roundtrip_trials(seed)
        assert line == ("expression-document-roundtrip", instances, False, detail)
    assert main(["check", "--suite", "io"]) == 1
    capsys.readouterr()


def test_roundtrip_check_fails_when_a_reload_changes_the_report(monkeypatch, capsys):
    """A reader that resets a report's seed changes its reloaded bytes: the
    line FAILs on its report probe and ``cohdual check`` exits 1."""
    import cohdual.checks as checks
    from cohdual.cli import main

    monkeypatch.setattr(checks, "from_document",
                        lambda doc: from_document(doc)._replace(seed=0))
    assert checks.roundtrip_trials() == (
        "expression-document-roundtrip", 1002, False,
        "fixed-seed report bytes differ between runs or on reload")
    assert main(["check", "--suite", "io"]) == 1
    capsys.readouterr()


# integer slots per kind, nested ones included
INT_SLOTS = {
    "cohomology_table": [("nvars",), ("entries", 0, "degree", 1)],
    "realization_check": [("nonzero_count",), ("table", "window")],
    "pairing_check": [("pair_count",), ("permutation", 0, "dual", 0)],
    "regularity_check": [("bound",), ("steps", 0, "kernel_dim")],
    "delta_profile": [("start",), ("entries", 0)],
    "shift_search": [("witness", "offset")],
    "independence_certificate": [("m0",), ("box", 0), ("delta", "start"),
                                 ("decomposition", "a"),
                                 ("decomposition", "h", "box", 0)],
    "check_report": [("seed",), ("lines", 0, "instances")],
    "element": [("box", 0), ("terms", 0, "exponents", 1)],
}


def _edited(doc, path, value=None):
    """A deep copy of doc with the slot at path set to value, or removed."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# the first case of each kind (the second shift search has no witness)
FIRST_OF_KIND = list({case[0]: case for case in reversed(PINNED)}.values())[::-1]


@pytest.mark.parametrize("kind, build, digest", FIRST_OF_KIND,
                         ids=[case[0] for case in FIRST_OF_KIND])
def test_readers_refuse_malformed_documents(kind, build, digest):
    doc = to_document(build())
    readers = [from_document] + ([element_from_document] if kind == "element" else [])
    other = "delta_profile" if kind == "element" else "element"
    for read in readers:
        for path in INT_SLOTS[kind]:
            for bad in (True, "3", 2.5):
                with pytest.raises(SchemaError):
                    read(_edited(doc, path, bad))
            with pytest.raises(SchemaError, match="missing key"):
                read(_edited(doc, path[:1]))
        for wrong in (dict(doc, kind=other), dict(doc, kind="table"),
                      dict(doc, schema="cohdual/0")):
            with pytest.raises(SchemaError):
                read(wrong)


def test_delta_profile_reader_does_not_coerce():
    doc = {"schema": "cohdual/1", "kind": "delta_profile",
           "start": True, "entries": ["3", 2.7]}
    with pytest.raises(SchemaError, match="start"):
        from_document(doc)
    with pytest.raises(SchemaError, match="entries"):
        from_document(dict(doc, start=1))


def test_a_report_value_its_class_refuses_is_a_malformed_document():
    """A negative box bound is an int, so it passes the schema and is
    refused by the box itself; the reader names the document kind."""
    doc = to_document(independence_certificate(
        (monomial(S2, TruncationBox((1, 1)), (0, 0)),), 8))
    with pytest.raises(SchemaError, match=r"^malformed independence_certificate document: "
                                          r"box bounds must be nonnegative"):
        from_document(_edited(doc, ("box", 0), -1))


def test_flags_are_booleans():
    report = {"schema": "cohdual/1", "kind": "check_report", "suite": "io",
              "seed": 1, "passed": 1, "lines": []}
    with pytest.raises(SchemaError, match="passed"):
        from_document(report)
    assert from_document(dict(report, passed=True)).passed is True


def test_from_document_needs_a_known_kind():
    with pytest.raises(SchemaError):
        from_document([])
    with pytest.raises(SchemaError):
        from_document({"schema": "cohdual/1", "kind": ["element"]})
    with pytest.raises(TypeError):
        to_document(object())
