"""Text expressions and JSON documents for elements and reports.

The expression grammar is deliberately small.  An expression is a signed
sum of terms; a term is an optional integer or fraction coefficient
followed by variable factors, with '*' optional between pieces and
whitespace ignored everywhere:

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
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

from .algebra import INVERSE, SERIES, Element, ModuleShape, TruncationBox, _window
from .fields import Fp, RATIONAL, Field, field_from_descriptor
from .independence import DeltaSequence, IndependenceCertificate, RDecomposition

SCHEMA = "cohdual/1"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"\d+")
_SIGNED_INT_RE = re.compile(r"[+-]?\d+")


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


def _checked_names(n: int, names) -> tuple[str, ...]:
    if names is None:
        return default_variable_names(n)
    names = tuple(names)
    if len(names) != n:
        raise ValueError(f"expected {n} variable names, got {len(names)}")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
    if len(set(names)) != n:
        raise ValueError("variable names must be distinct")
    return names


def parse_element(text: str, shape: ModuleShape, box: TruncationBox,
                  field: Field = RATIONAL, names=None) -> Element:
    """Parse an expression into an exact element of the given shape and box."""
    names = _checked_names(shape.nvars, names)
    index = {name: j for j, name in enumerate(names)}
    by_length = sorted(names, key=len, reverse=True)
    n = shape.nvars
    lo, hi, _ = _window(shape.roles, box.bounds)
    size = len(text)

    def skip(p: int) -> int:
        while p < size and text[p].isspace():
            p += 1
        return p

    terms: dict[tuple[int, ...], object] = {}
    pos = skip(0)
    if pos == size:
        raise ParseError("empty expression", pos)
    first = True
    while pos < size:
        sign = 1
        if text[pos] == "+":
            pos = skip(pos + 1)
        elif text[pos] == "-":
            sign = -1
            pos = skip(pos + 1)
        elif not first:
            if text[pos].isdigit():
                raise ParseError("a coefficient may only open a term", pos)
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        term_pos = pos

        coeff = None
        m = _INT_RE.match(text, pos)
        if m:
            scalar_text = m.group()
            pos = m.end()
            p = skip(pos)
            if p < size and text[p] == "/":
                p = skip(p + 1)
                m2 = _INT_RE.match(text, p)
                if not m2:
                    raise ParseError("expected a denominator after '/'", p)
                scalar_text += "/" + m2.group()
                pos = m2.end()
            try:
                coeff = field.parse_scalar(scalar_text)
            except ValueError as exc:
                raise ParseError(str(exc), term_pos) from None

        exps = [0] * n
        saw_factor = False
        while True:
            p = skip(pos)
            starred = False
            if p < size and text[p] == "*":
                starred = True
                p = skip(p + 1)
            matched = next((nm for nm in by_length if text.startswith(nm, p)), None)
            if matched is None:
                if starred:
                    raise ParseError("expected a variable after '*'", p)
                pos = p
                break
            j = index[matched]
            factor_pos = p
            p += len(matched)
            exponent = 1
            q = skip(p)
            if q < size and text[q] == "^":
                q = skip(q + 1)
                m3 = _SIGNED_INT_RE.match(text, q)
                if not m3:
                    raise ParseError("expected an integer exponent after '^'", q)
                exponent = int(m3.group())
                p = m3.end()
            role = shape.role(j)
            if role == SERIES and exponent < 0:
                raise ParseError(
                    f"series variable {matched} cannot carry a negative exponent",
                    factor_pos)
            if role == INVERSE and exponent > 0:
                raise ParseError(
                    f"inverse variable {matched} cannot carry a positive exponent",
                    factor_pos)
            exps[j] += exponent
            saw_factor = True
            pos = p

        if coeff is None and not saw_factor:
            raise ParseError("expected a term", term_pos)
        if coeff is None:
            coeff = field.one
        for j in range(n):
            if not lo[j] <= exps[j] <= hi[j]:
                raise ParseError(
                    f"exponent {exps[j]} of {names[j]} falls outside the truncation box",
                    term_pos)
        key = tuple(exps)
        value = -coeff if sign < 0 else coeff
        terms[key] = terms[key] + value if key in terms else value
        pos = skip(pos)
    return Element.from_terms(shape, box, terms)


def serialize_element(element: Element, names=None) -> str:
    """Canonical expression text for an element; the zero element is "0"."""
    names = _checked_names(element.shape.nvars, names)
    if element.is_zero:
        return "0"
    shape = element.shape
    factor_order = sorted(
        range(shape.nvars),
        key=lambda j: (0 if shape.role(j) == INVERSE else 1, j))
    rendered = []
    for exps, coeff in element.terms:
        if isinstance(coeff, Fp):
            negative = False
            magnitude = coeff
        else:
            negative = coeff < 0
            magnitude = -coeff if negative else coeff
        factors = []
        for j in factor_order:
            e = exps[j]
            if e == 0:
                continue
            factors.append(names[j] if e == 1 else f"{names[j]}^{e}")
        if not factors or magnitude != 1:
            factors.insert(0, str(magnitude))
        rendered.append((negative, "*".join(factors)))
    negative, body = rendered[0]
    out = ("-" if negative else "") + body
    for negative, body in rendered[1:]:
        out += (" - " if negative else " + ") + body
    return out


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


def _field_of(doc) -> Field:
    try:
        return field_from_descriptor(doc["field"])
    except KeyError:
        raise SchemaError("document is missing its field descriptor") from None


def element_to_document(element: Element, field: Field = RATIONAL,
                        names=None) -> dict:
    """JSON form of an element; coefficients become field-parseable strings."""
    names = _checked_names(element.shape.nvars, names)
    for _, coeff in element.terms:
        if field.parse_scalar(str(coeff)) != coeff:
            raise ValueError(
                f"coefficient {coeff!r} does not belong to the field {field!r}")
    return new_document("element", {
        "field": field.descriptor,
        "shape": list(element.shape.roles),
        "box": list(element.box.bounds),
        "names": list(names),
        "exact": element.exact,
        "terms": [
            {"exponents": list(e), "coefficient": str(c)}
            for e, c in element.terms
        ],
        "text": serialize_element(element, names),
    })


def _json_ints(values, what: str) -> tuple[int, ...]:
    """The values as a tuple, refusing anything but JSON integers."""
    if any(type(v) is not int for v in values):
        raise SchemaError(f"{what}s must be JSON integers, got {values!r}")
    return tuple(values)


def element_from_document(doc) -> Element:
    """Rebuild an element from its JSON form, revalidating everything."""
    _expect(doc, "element")
    field = _field_of(doc)
    try:
        roles = tuple(doc["shape"])
        bounds = _json_ints(doc["box"], "box bound")
        raw_terms = doc["terms"]
        exact = bool(doc["exact"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed element document: {exc}") from None
    if any(role not in (SERIES, INVERSE) for role in roles):
        raise SchemaError(f"unknown roles in {roles!r}")
    shape = ModuleShape(roles)
    box = TruncationBox(bounds)
    terms: dict[tuple[int, ...], object] = {}
    try:
        for entry in raw_terms:
            e = _json_ints(entry["exponents"], "exponent")
            c = field.parse_scalar(str(entry["coefficient"]))
            terms[e] = terms[e] + c if e in terms else c
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed term entry: {exc}") from None
    element = Element.from_terms(shape, box, terms)
    if not exact:
        element = replace(element, exact=False)
    return element


def write_document(doc: dict, path=None) -> bytes:
    """Deterministic bytes for a document, optionally written to a file."""
    data = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)
    payload = (data + "\n").encode("ascii")
    if path is not None:
        Path(path).write_bytes(payload)
    return payload


def read_document(path) -> dict:
    """Load a document file and check the schema tag (but not the kind)."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SchemaError(f"file does not carry the {SCHEMA!r} schema tag")
    return doc


def table_to_document(table) -> dict:
    """Document for a per-degree dimension table."""
    return new_document("cohomology_table", {
        "nvars": table.n,
        "index": table.i,
        "window": table.window,
        "entries": [
            {"degree": list(degree), "dims": list(dims)}
            for degree, dims in table.entries
        ],
    })


def realization_to_document(report) -> dict:
    """Document for a window sweep compared against the predicted support."""
    return new_document("realization_check", {
        "table": table_to_document(report.table),
        "passed": report.passed,
        "nonzero_count": report.nonzero_count,
        "mismatches": [
            {"degree": list(degree), "dims": list(dims)}
            for degree, dims in report.mismatches
        ],
    })


def pairing_to_document(report) -> dict:
    """Document for a pairing-perfection check.

    The full record list is quadratic in the box size, so only the matched
    permutation and the verdict are serialized.
    """
    return new_document("pairing_check", {
        "nvars": report.n,
        "index": report.i,
        "bound": report.bound,
        "pair_count": len(report.records),
        "permutation": [
            {"dual": list(de), "module": list(me)}
            for de, me in report.permutation
        ],
        "passed": report.passed,
    })


def regularity_to_document(report) -> dict:
    """Document for a variable-by-variable injectivity check on the dual."""
    return new_document("regularity_check", {
        "nvars": report.n,
        "index": report.i,
        "bound": report.bound,
        "steps": [
            {
                "variable": step.variable,
                "domain_dim": step.domain_dim,
                "kernel_dim": step.kernel_dim,
            }
            for step in report.steps
        ],
        "final_roles": list(report.final_roles),
        "final_dim": report.final_dim,
        "final_nonzero": report.final_nonzero,
        "passed": report.passed,
    })


def delta_to_document(seq: DeltaSequence) -> dict:
    """Document for a minimal-exponent profile; vanishing entries are null."""
    return new_document("delta_profile", {
        "start": seq.start,
        "entries": list(seq.entries),
    })


def delta_from_document(doc) -> DeltaSequence:
    _expect(doc, "delta_profile")
    try:
        start = int(doc["start"])
        entries = tuple(None if v is None else int(v) for v in doc["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed profile document: {exc}") from None
    return DeltaSequence(start, entries)


def shift_search_to_document(result) -> dict:
    """Document for the outcome of a bounded shift-witness search."""
    witness = None
    if result.witness is not None:
        witness = {
            "shift_left": result.witness.shift_left,
            "shift_right": result.witness.shift_right,
            "offset": result.witness.offset,
        }
    return new_document("shift_search", {
        "status": result.status,
        "witness": witness,
    })


def certificate_to_document(cert: IndependenceCertificate,
                            field: Field = RATIONAL, names=None) -> dict:
    """Document for an independence certificate, embedding its profile and
    the decomposition polynomials as nested element documents."""
    return new_document("independence_certificate", {
        "m0": cert.m0,
        "a": cert.a,
        "b": cert.b,
        "lmax": cert.lmax,
        "tail_start": cert.tail_start,
        "nonzero": cert.nonzero,
        "box": list(cert.box.bounds),
        "delta": delta_to_document(cert.delta),
        "decomposition": {
            "a": cert.decomposition.a,
            "b": cert.decomposition.b,
            "h": element_to_document(cert.decomposition.h, field, names),
            "g": element_to_document(cert.decomposition.g, field, names),
        },
    })


def certificate_from_document(doc) -> IndependenceCertificate:
    _expect(doc, "independence_certificate")
    try:
        dec_doc = doc["decomposition"]
        decomposition = RDecomposition(
            a=int(dec_doc["a"]),
            h=element_from_document(dec_doc["h"]),
            g=element_from_document(dec_doc["g"]),
            b=int(dec_doc["b"]),
        )
        return IndependenceCertificate(
            m0=int(doc["m0"]),
            a=int(doc["a"]),
            b=int(doc["b"]),
            lmax=int(doc["lmax"]),
            tail_start=int(doc["tail_start"]),
            delta=delta_from_document(doc["delta"]),
            decomposition=decomposition,
            nonzero=bool(doc["nonzero"]),
            box=TruncationBox(_json_ints(doc["box"], "box bound")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed certificate document: {exc}") from None


def check_report_to_document(report) -> dict:
    """Document for a named-check suite run."""
    return new_document("check_report", {
        "suite": report.suite,
        "seed": report.seed,
        "passed": report.passed,
        "lines": [
            {
                "name": line.name,
                "instances": line.instances,
                "passed": line.passed,
                "detail": line.detail,
            }
            for line in report.lines
        ],
    })
