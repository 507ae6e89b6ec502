"""Text expressions and JSON documents for elements and reports.

The expression grammar is deliberately small.  An expression is a signed
sum of terms, whitespace ignored everywhere; every term after the first
opens with '+' or '-'.  A term is read by two patterns: an optional
coefficient ``digits [/ digits]``, then factors ``[*] name [^ [+|-]digits]``
until a piece is neither a star nor a name.  Digits are ASCII, and names
are tried longest first, so X10 is never read as X1 and 0:

    3/2*X^2*Y^-1 - X + 4

Each factor must respect its direction: series variables take nonnegative
exponents, inverse variables nonpositive ones, and every term must fit the
truncation box.  Violations raise :class:`ParseError` carrying the
character position.

Serialization is canonical: terms ascend in the lexicographic exponent
order, inverse factors print before series factors, unit exponents print
bare, and unit coefficients are dropped except on constants.  Two elements
with the same shape and box serialize equally only if they are equal, and
parsing a serialization returns the original element.

Documents are plain JSON objects tagged with a schema string and a kind.
:func:`write_document` produces sorted, indented, ASCII bytes, so equal
documents give byte-identical files.

Each document kind is described once, field by field, in one table built
at import, and the same description drives both :func:`to_document`
(dispatching on the object's type) and :func:`from_document` (dispatching
on the kind tag).  The table names each class as "module.Class" and a
reader imports that module only when it decodes, so writing or reading an
element imports no report module.  The descriptions are composed from a
few codecs: a JSON leaf of one exact type, a list, an optional value
(null for None), an object keyed by attribute names (reports write ``n``
and ``i`` as ``nvars`` and ``index``), a pair written as two named keys,
a box as its list of bounds, and a whole document nested as a value.
Elements keep their hand-written codec, :func:`element_to_document` and
:func:`element_from_document`, registered like the other kinds.  A reader
accepts only the JSON type its writer emits, so ``true``, ``"3"`` and
``2.5`` in an integer slot raise :class:`SchemaError`, as does a missing
key; keys it does not know are ignored.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import import_module
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path
from typing import Callable, NamedTuple

from .algebra import INVERSE, SERIES, Element, ModuleShape, TruncationBox, _window
from .fields import Fp, RATIONAL, Field, field_from_descriptor

SCHEMA = "cohdual/1"

_DIGIT = "[0-9]"  # ASCII digits only, as in the scalar reader; \d takes every script's
_SIGNED_INT_RE = re.compile(rf"[+-]?{_DIGIT}+")
_COEFFICIENT_RE = re.compile(rf"({_DIGIT}+)(?:\s*/\s*({_DIGIT}*))?")  # "" after a bare '/'
_SPACE_RE = re.compile(r"\s*")  # \s is exactly str.isspace on str patterns
# the layout of each JSON leaf type that needs no encoder; json.dumps writes the rest
_LEAVES = {str: _ascii, int: int.__repr__, bool: {False: "false", True: "true"}.get}


class ParseError(ValueError):
    """Expression syntax or validity error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaError(ValueError):
    """A document is structurally wrong or carries the wrong schema/kind."""


def default_variable_names(n: int) -> tuple[str, ...]:
    """X, Y, Z for up to three variables, X1..Xn beyond that."""
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    if n <= 3:
        return ("X", "Y", "Z")[:n]
    return tuple(f"X{j}" for j in range(1, n + 1))


def parse_element(text: str, shape: ModuleShape, box: TruncationBox,
                  field: Field = RATIONAL) -> Element:
    """Parse an expression into an exact element of the given shape and box."""
    if shape.nvars != box.nvars:
        raise ValueError("shape and box disagree on the variable count")
    names = default_variable_names(shape.nvars)
    factor_at = _factor_pattern(names)
    lo, hi, _ = _window(shape.roles, box.bounds)
    terms: list[tuple[tuple[int, ...], object]] = []
    pos = _SPACE_RE.match(text).end()
    if pos == len(text):
        raise ParseError("empty expression", pos)
    while pos < len(text):
        negative = text[pos] == "-"
        if negative or text[pos] == "+":
            pos = _SPACE_RE.match(text, pos + 1).end()
        elif terms:
            if _COEFFICIENT_RE.match(text, pos):
                raise ParseError("a coefficient may only open a term", pos)
            raise ParseError("expected '+' or '-' between terms", pos)
        term_pos = pos
        coeff = field.one
        if m := _COEFFICIENT_RE.match(text, pos):
            pos = m.end()
            if m[2] == "":
                raise ParseError("expected a denominator after '/'", pos)
            try:
                coeff = field.parse_scalar(m[1] if m[2] is None else f"{m[1]}/{m[2]}")
            except ValueError as exc:
                raise ParseError(str(exc), term_pos) from None
        exps = [0] * len(names)
        while True:
            m = factor_at(text, pos)
            star, name, caret, exponent = m.groups()
            pos = m.end()
            if name is None:
                if star:
                    raise ParseError("expected a variable after '*'", pos)
                break
            if caret and exponent is None:
                raise ParseError("expected an integer exponent after '^'", pos)
            factor_pos = m.start(2)
            try:
                exponent = int(exponent or 1)
            except ValueError as exc:  # past the interpreter's int-string digit limit
                raise ParseError(str(exc), factor_pos) from None
            j = names.index(name)
            role = shape.roles[j]
            if role == SERIES and exponent < 0:
                raise ParseError(
                    f"series variable {name} cannot carry a negative exponent", factor_pos)
            if role == INVERSE and exponent > 0:
                raise ParseError(
                    f"inverse variable {name} cannot carry a positive exponent", factor_pos)
            exps[j] += exponent
        if pos == term_pos:  # neither a coefficient nor a factor
            raise ParseError("expected a term", term_pos)
        for name, total, least, most in zip(names, exps, lo, hi):
            if not least <= total <= most:
                raise ParseError(
                    f"exponent {total} of {name} falls outside the truncation box", term_pos)
        terms.append((tuple(exps), -coeff if negative else coeff))
    return Element.from_terms(shape, box, terms, field=field)


@lru_cache(maxsize=64)
def _factor_pattern(names: tuple[str, ...]):
    """``match`` of one factor and the spaces around it, grouping its star, name,
    caret and exponent; names are tried longest first."""
    alternatives = "|".join(sorted(names, key=len, reverse=True))
    return re.compile(
        rf"\s*(\*?)\s*(?:({alternatives})(?:(\s*\^\s*)({_SIGNED_INT_RE.pattern})?)?)?").match


@lru_cache(maxsize=64)
def _print_order(roles: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    """(position, name) of each variable, inverse factors first."""
    names = default_variable_names(len(roles))
    return tuple((j, names[j]) for j in sorted(
        range(len(roles)), key=lambda j: (roles[j] != INVERSE, j)))


def serialize_element(element: Element) -> str:
    """Canonical expression text for an element; the zero element is "0"."""
    if element.is_zero:
        return "0"
    order = _print_order(element.shape.roles)
    out = ""
    for exps, coeff in element.terms:
        negative = not isinstance(coeff, Fp) and coeff < 0
        magnitude = -coeff if negative else coeff
        factors = [name if exps[j] == 1 else f"{name}^{exps[j]}" for j, name in order if exps[j]]
        if not factors or magnitude != 1:
            factors.insert(0, str(magnitude))
        out += (" - " if negative else " + ") + "*".join(factors)
    return ("-" if out[1] == "-" else "") + out[3:]


def new_document(kind: str, payload: dict) -> dict:
    """A document skeleton of the given kind with the payload merged in."""
    doc = {"schema": SCHEMA, "kind": kind}
    doc.update(payload)
    return doc


def _expect(doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(
            f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected a {kind!r} document, got {doc.get('kind')!r}")


def write_document(doc: dict, path=None) -> bytes:
    """Sorted, indented ASCII JSON bytes for a document, optionally written to a file."""
    payload = (_laid_out(doc, "\n") + "\n").encode("ascii")
    if path is not None:
        Path(path).write_bytes(payload)
    return payload


def _laid_out(value, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for string keys, placed after
    ``pad`` (json indents only in pure Python, at three times the cost)."""
    if (leaf := _LEAVES.get(type(value))) is not None:
        return leaf(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [_ascii(key) + ": " + _laid_out(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    first = type(value[0])
    if first in _LEAVES and set(map(type, value)) == {first}:  # no call per leaf
        items = map(_LEAVES[first], value)
    else:
        items = [_laid_out(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def read_document(path) -> dict:
    """Load a document file and check the schema tag (but not the kind)."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SchemaError(f"file does not carry the {SCHEMA!r} schema tag")
    return doc


class _Codec(NamedTuple):
    """encode(value) -> JSON, and decode(JSON) -> value."""

    encode: Callable
    decode: Callable


def _same(value):
    return value


def _leaf(kind: type, what: str) -> _Codec:
    """A JSON scalar of exactly this Python type; True is not an int here."""
    def decode(value):
        if type(value) is not kind:
            raise SchemaError(f"only JSON {what} are allowed here, got {value!r}")
        return value
    return _Codec(_same, decode)


_INT, _BOOL, _STR = _leaf(int, "integers"), _leaf(bool, "booleans"), _leaf(str, "strings")


def _list(item: _Codec) -> _Codec:
    """A JSON list of the item, read back as a tuple; lists of leaves are
    copied without a call per entry, which keeps large tables cheap."""
    encode_item, decode_item = item

    def decode(value):
        if type(value) is not list:
            raise SchemaError(f"expected a JSON list, got {type(value).__name__}")
        return tuple(map(decode_item, value))
    if encode_item is _same:
        return _Codec(list, decode)
    return _Codec(lambda v: [encode_item(x) for x in v], decode)


def _optional(item: _Codec) -> _Codec:
    """The item, or JSON null for None."""
    encode_item, decode_item = item
    return _Codec(lambda v: None if v is None else encode_item(v),
                  lambda v: None if v is None else decode_item(v))


def _at(doc, key: str, decode):
    """Decode doc[key], naming the key in any schema error."""
    if type(doc) is not dict:
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    try:
        return decode(doc[key])
    except SchemaError as exc:
        raise SchemaError(f"{key}: {exc}") from None


# reports hold the variable count and position as n and i
_KEYS = {"n": "nvars", "i": "index"}


def _object(cls: str, **codecs: _Codec) -> _Codec:
    """An object whose keys are the named attributes of the cohdual class
    spelled "module.Class", which is imported only when an object is read."""
    module, _, name = cls.rpartition(".")
    fields = [(attr, _KEYS.get(attr, attr), *codec) for attr, codec in codecs.items()]

    def encode(obj):
        return {key: enc(getattr(obj, attr)) for attr, key, enc, _ in fields}

    def decode(doc):
        built = getattr(import_module(f"{__package__}.{module}"), name)
        return built(**{attr: _at(doc, key, dec) for attr, key, _, dec in fields})
    return _Codec(encode, decode)


def _pair(first: str, first_codec: _Codec, second: str, second_codec: _Codec) -> _Codec:
    """A 2-tuple written as an object with two named keys."""
    enc1, dec1 = first_codec
    enc2, dec2 = second_codec
    return _Codec(
        lambda v: {first: enc1(v[0]), second: enc2(v[1])},
        lambda doc: (_at(doc, first, dec1), _at(doc, second, dec2)))


_INTS, _STRS = _list(_INT), _list(_STR)
_BOX = _Codec(lambda box: list(box.bounds),
              lambda v: TruncationBox(_INTS.decode(v)))
_TERMS = _list(_pair("exponents", _INTS, "coefficient", _STR))


def _embedded(kind: str) -> _Codec:
    """A whole document of the given kind nested as a value."""
    return _Codec(lambda v: _KINDS[kind].write(v),
                  lambda doc: _KINDS[kind].read(doc))


def element_to_document(element: Element) -> dict:
    """JSON form of an element; coefficients become strings its field parses."""
    return new_document("element", {
        "field": element.field.descriptor,
        "shape": list(element.shape.roles),
        "box": list(element.box.bounds),
        "names": list(default_variable_names(element.shape.nvars)),
        "exact": element.exact,
        "terms": [
            {"exponents": list(e), "coefficient": str(c)}
            for e, c in element.terms
        ],
        "text": serialize_element(element),
    })


def element_from_document(doc) -> Element:
    """Rebuild an element from its JSON form, revalidating everything."""
    _expect(doc, "element")
    field = field_from_descriptor(_at(doc, "field", _STR.decode))
    roles = _at(doc, "shape", _STRS.decode)
    if any(role not in (SERIES, INVERSE) for role in roles):
        raise SchemaError(f"shape: unknown roles in {roles!r}")
    box = _at(doc, "box", _BOX.decode)
    exact = _at(doc, "exact", _BOOL.decode)
    terms = [(e, field.parse_scalar(c)) for e, c in _at(doc, "terms", _TERMS.decode)]
    return Element.from_terms(ModuleShape(roles), box, terms, exact, field)


class _Kind(NamedTuple):
    """A kind's class, spelled "module.Class", its writer, its reader."""

    cls: str
    write: Callable  # obj -> document
    read: Callable   # document -> obj


def _report(kind: str, cls: str, **codecs: _Codec) -> tuple[str, _Kind]:
    """A report kind: the attributes' keys sit next to the schema and kind."""
    encode, decode = _object(cls, **codecs)

    def read(doc):
        _expect(doc, kind)
        try:
            return decode(doc)
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"malformed {kind} document: {exc}") from None
    return kind, _Kind(cls, lambda obj: new_document(kind, encode(obj)), read)


_SLICES = _list(_pair("degree", _INTS, "dims", _INTS))
_ELEMENT = _embedded("element")

# every kind tag -> its description; classes are imported only to decode
_KINDS = dict([
    # looked up at call time, so a wrapper set on the module attribute is used
    ("element", _Kind("algebra.Element", lambda e: element_to_document(e),
                      lambda doc: element_from_document(doc))),
    _report("cohomology_table", "cech.CohomologyTable",
            n=_INT, i=_INT, window=_INT, entries=_SLICES),
    _report("realization_check", "cech.RealizationReport",
            table=_embedded("cohomology_table"), passed=_BOOL,
            nonzero_count=_INT, mismatches=_SLICES),
    _report("pairing_check", "duality.PairingReport",
            n=_INT, i=_INT, bound=_INT, pair_count=_INT,
            permutation=_list(_pair("dual", _INTS, "module", _INTS)),
            passed=_BOOL),
    _report("regularity_check", "duality.RegularityReport",
            n=_INT, i=_INT, bound=_INT,
            steps=_list(_object("duality.RegularityStep", variable=_INT,
                                domain_dim=_INT, kernel_dim=_INT)),
            final_roles=_STRS, final_dim=_INT, final_nonzero=_BOOL,
            passed=_BOOL),
    _report("delta_profile", "independence.DeltaSequence",
            start=_INT, entries=_list(_optional(_INT))),
    _report("shift_search", "independence.ShiftSearch",
            status=_STR, witness=_optional(_object(
                "independence.ShiftWitness", shift_left=_INT, shift_right=_INT,
                offset=_INT))),
    _report("independence_certificate", "independence.IndependenceCertificate",
            m0=_INT, a=_INT, b=_INT, lmax=_INT, tail_start=_INT,
            delta=_embedded("delta_profile"),
            decomposition=_object("independence.RDecomposition", a=_INT, h=_ELEMENT,
                                  g=_ELEMENT, b=_INT),
            nonzero=_BOOL, box=_BOX),
    _report("check_report", "checks.CheckReport",
            suite=_STR, seed=_INT, passed=_BOOL,
            lines=_list(_object("checks.CheckLine", name=_STR, instances=_INT,
                                passed=_BOOL, detail=_STR))),
])
_BY_CLASS = {f"{__package__}.{kind.cls}": kind for kind in _KINDS.values()}


def to_document(obj) -> dict:
    """The document for an element or report; each element document, nested
    ones included, names the element's own field."""
    kind = _BY_CLASS.get(f"{type(obj).__module__}.{type(obj).__qualname__}")
    if kind is None:
        raise TypeError(f"no document kind for {type(obj).__name__}")
    return kind.write(obj)


def from_document(doc):
    """Rebuild the object a document describes, chosen by its kind tag."""
    if type(doc) is not dict:
        raise SchemaError("document must be a JSON object")
    name = doc.get("kind")
    if type(name) is not str or name not in _KINDS:
        raise SchemaError(f"unknown document kind {name!r}")
    return _KINDS[name].read(doc)
