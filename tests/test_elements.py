"""The element record, two-element sums and the field of the frame.

Elements are immutable records whose equality ignores ``exact`` but not
the field; ``+``, ``-``, ``scale`` and ``linear_combine`` are checked
against a plain-dict oracle; and the field each kind of operand gets at
construction, and whether two kinds meet in one computation, are held to
a table of outcomes, one per pair of kinds.
"""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from cohdual.algebra import (
    INVERSE,
    SERIES,
    Element,
    ModuleShape,
    TruncationBox,
    linear_combine,
    ring_act,
)
from cohdual.duality import matlis_pair
from cohdual.fields import RATIONAL, Fp, PrimeField, field_from_descriptor, field_of
from conftest import coefficient_strings, oracle_product

S2 = ModuleShape((SERIES, INVERSE))
BOX = TruncationBox((3, 3))


def test_attributes_cannot_be_assigned():
    e = Element.from_terms(S2, BOX, {(1, -1): 2})
    for obj, name, value in ((e, "exact", False), (e, "terms", ()), (e, "shape", S2),
                             (e, "other", 1), (S2, "roles", ()), (S2, "other", 1),
                             (BOX, "bounds", ()), (BOX, "other", 1)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert e.exact and e.terms == (((1, -1), 2),)


def test_equality_and_hash_ignore_exact():
    e = Element.from_terms(S2, BOX, {(1, -1): 2, (0, 0): Fraction(1, 3)})
    lossy = e._replace(exact=False)
    assert lossy.exact is False and e.exact is True
    assert e == lossy and not e != lossy
    assert hash(e) == hash(lossy)
    assert len({e, lossy}) == 1
    assert e != e._replace(terms=e.terms[:1])
    assert e != e._replace(box=TruncationBox((3, 4)))
    assert e != e._replace(shape=ModuleShape((SERIES, SERIES)))


@pytest.mark.parametrize("other", [3, None, "e", (), "as tuple"])
def test_equality_against_other_types_is_false(other):
    e = Element.from_terms(S2, BOX, {(1, -1): 2})
    if other == "as tuple":  # the same fields in a plain tuple
        other = (e.shape, e.box, e.terms, e.exact)
    assert (e == other) is False and (other == e) is False
    assert (e != other) is True and (other != e) is True


def test_copies_and_pickles_keep_value_and_flag():
    e = Element.from_terms(S2, BOX, {(1, -1): Fp(3, 7), (2, 0): Fp(5, 7)}, exact=False)
    for clone in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(clone) is Element
        assert clone == e and clone.exact is False
        assert coefficient_strings(clone.term_map()) == coefficient_strings(e.term_map())
    assert e._replace(exact=True).exact is True


# (frame field, coefficient draw) per kind of draw; any draw may vanish
FIELDS = {
    "int": (RATIONAL, lambda rng: rng.choice((1, -1, 2, -3, 0))),
    "rational": (RATIONAL, lambda rng: Fraction(rng.choice((1, -1, 2, -3, 0)),
                                                rng.randint(1, 4))),
    "prime:7": (PrimeField(7), lambda rng: Fp(rng.randint(0, 6), 7)),
}
EXPONENTS = [(x, y) for x in range(3) for y in range(0, -3, -1)]


def _draw(rng, field):
    frame, draw = FIELDS[field]
    terms = {e: draw(rng) for e in rng.sample(EXPONENTS, rng.randint(0, 4))}
    return Element.from_terms(S2, BOX, terms, exact=rng.random() < 0.7, field=frame)


def _oracle(pairs):
    """Σ scalar·elem on term dicts, zero sums dropped; printed coefficients,
    so types are compared as well as values."""
    out = {}
    for scalar, elem in pairs:
        for e, c in elem.term_map().items():
            out[e] = out.get(e, 0) + scalar * c
    return coefficient_strings({e: c for e, c in out.items() if c})


def _agrees(result, pairs):
    terms = coefficient_strings(result.term_map())
    return (type(result) is Element and terms == _oracle(pairs)
            and [e for e, _ in result.terms] == sorted(terms)
            and result.exact == all(elem.exact for _, elem in pairs))


@pytest.mark.parametrize("field", FIELDS)
def test_sums_match_the_dict_oracle(field):
    rng = random.Random(f"sums {field}")
    scalars = {"int": (0, 1, -1, 3), "rational": (Fraction(2, 3), 1, 0),
               "prime:7": (Fp(3, 7), Fp(0, 7), 1, -1)}[field]
    for _ in range(300):
        a, b, c = (_draw(rng, field) for _ in range(3))
        s, t = rng.choice(scalars), rng.choice(scalars)
        assert _agrees(a + b, [(1, a), (1, b)])
        assert _agrees(a - b, [(1, a), (-1, b)])
        assert _agrees(a - a, [(1, a), (-1, a)]) and (a - a).is_zero
        assert _agrees(-a, [(-1, a)])
        assert _agrees(a.scale(s), [(s, a)])
        assert _agrees(linear_combine([(s, a), (t, b), (1, c)]), [(s, a), (t, b), (1, c)])
        assert a + b == linear_combine([(1, a), (1, b)])


def test_sums_refuse_a_frame_mismatch():
    e = Element.from_terms(S2, BOX, {(1, -1): 1})
    others = (Element.from_terms(ModuleShape((SERIES, SERIES)), BOX, {(1, 1): 1}),
              Element.from_terms(S2, TruncationBox((3, 4)), {(1, -1): 1}))
    message = "linear_combine requires a common shape and box"
    for other in others:
        for op in (lambda: e + other, lambda: e - other, lambda: other - e,
                   lambda: linear_combine([(1, e), (2, other)])):
            with pytest.raises(ValueError, match=message):
                op()


def test_tuple_operations_are_refused():
    """An element, a shape and a box are tuples underneath, but none of
    them repeats or concatenates: ``*``, a tuple on the left of ``+`` and
    ``+`` on shapes raise as they would on any record, and the element
    operations are unchanged."""
    e = Element.from_terms(S2, BOX, {(1, -1): 2, (0, 0): Fraction(1, 3)})
    for op, message in ((lambda: e * 2, "'Element' and 'int'"),
                        (lambda: 2 * e, "'int' and 'Element'"),
                        (lambda: e * e, "'Element' and 'Element'"),
                        (lambda: (1,) + e, "'tuple' and 'Element'"),
                        (lambda: S2 * 2, "'ModuleShape' and 'int'"),
                        (lambda: 2 * S2, "'int' and 'ModuleShape'"),
                        (lambda: S2 + S2, "'ModuleShape' and 'ModuleShape'"),
                        (lambda: (1,) + S2, "'tuple' and 'ModuleShape'"),
                        (lambda: BOX * 2, "'TruncationBox' and 'int'"),
                        (lambda: 2 * BOX, "'int' and 'TruncationBox'"),
                        (lambda: (1,) + BOX, "'tuple' and 'TruncationBox'")):
        with pytest.raises(TypeError, match=f"^unsupported operand type\\(s\\) for .: {message}$"):
            op()
    assert (e + e).term_map() == {(1, -1): 4, (0, 0): Fraction(2, 3)}
    assert (e - e).is_zero and (e - e).exact
    assert (-e).term_map() == {(1, -1): -2, (0, 0): Fraction(-1, 3)}


def test_elements_over_different_fields_differ():
    """Equal values in two frames are two elements: the field is part of
    ``==`` and of the hash."""
    rational = Element.from_terms(S2, BOX, {(0, 0): 3})
    residue = Element.from_terms(S2, BOX, {(0, 0): Fp(3, 7)})
    assert (rational.field, residue.field) == (RATIONAL, PrimeField(7))
    assert rational != residue and not rational == residue
    assert hash(rational) != hash(residue)
    assert len({rational, residue}) == 2
    assert Element.zero(S2, BOX, RATIONAL) != Element.zero(S2, BOX, PrimeField(7))
    assert residue == Element.from_terms(S2, BOX, {(0, 0): 3}, field=PrimeField(7))


def test_fields_inferred_or_read_for_one_p_are_one_object():
    """Each p gets one descriptor: two fields inferred from coefficients, or
    read from a descriptor, are the same object, and it compares, hashes
    and describes itself as a freshly built one does."""
    inferred = [Element.from_terms(S2, BOX, {(0, 0): Fp(c, 32003)}).field for c in (3, 5)]
    read = field_from_descriptor("prime:32003")
    assert inferred[0] is inferred[1] is field_of(Fp(1, 32003)) is read
    fresh = PrimeField(32003)
    assert fresh is not read
    assert (read == fresh, hash(read), read.descriptor) == (True, hash(fresh), "prime:32003")
    assert field_of(Fp(1, 7)) is not read and field_of(Fp(1, 7)) != read
    a = Element.from_terms(S2, BOX, {(0, 0): Fp(2, 32003)})
    b = Element.from_terms(S2, BOX, {(1, 0): 4}, field=read)
    assert (a + b).field is read


def test_residue_arithmetic_mod_7():
    """Subtraction either way, an int over a residue, negative powers and
    repr; mixing primes and inverting zero are refused."""
    three, five = Fp(3, 7), Fp(5, 7)
    assert (three - five, three - 5, 2 - three) == (Fp(5, 7), Fp(5, 7), Fp(6, 7))
    assert (3 / Fp(2, 7), three ** -1) == (Fp(5, 7), Fp(5, 7))
    assert repr(three) == "Fp(3, 7)"
    with pytest.raises(ValueError, match="mixed prime fields: 7 and 11"):
        three + Fp(1, 11)
    with pytest.raises(ZeroDivisionError, match="0 has no inverse mod 7"):
        Fp(0, 7).inverse()


def test_prime_fields_need_a_prime():
    assert PrimeField(2).descriptor == "prime:2"
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match=f"not a prime: {p}"):
            PrimeField(p)


def test_field_descriptors_are_immutable():
    """A field shared by every element of its p refuses assignment, so no
    assignment can make GF(7) elements describe themselves as GF(11); copies
    and pickles still give equal fields."""
    gf7 = field_of(Fp(1, 7))
    with pytest.raises(AttributeError):
        gf7.p = 11
    assert field_of(Fp(3, 7)).descriptor == "prime:7"
    for name in ("p", "descriptor"):
        with pytest.raises(AttributeError):
            setattr(RATIONAL, name, 11)
    assert RATIONAL.descriptor == "rational" and not hasattr(RATIONAL, "p")
    for field in (gf7, RATIONAL):
        for clone in (pickle.loads(pickle.dumps(field)), copy.copy(field),
                      copy.deepcopy(field)):
            assert type(clone) is type(field)
            assert (clone, hash(clone), clone.descriptor) == (
                field, hash(field), field.descriptor)


def test_a_frame_brings_ints_into_its_field():
    """Over GF(p) an int becomes its residue and a multiple of p no term;
    over Q an int stays an int; a coefficient of another field is refused."""
    gf7 = PrimeField(7)
    e = Element.from_terms(S2, BOX, {(0, 0): 12, (1, 0): 14, (2, 0): Fp(3, 7)}, field=gf7)
    assert e.terms == (((0, 0), Fp(5, 7)), ((2, 0), Fp(3, 7)))
    assert all(type(c) is Fp for _, c in e.terms)
    q = Element.from_terms(S2, BOX, {(0, 0): 12, (1, 0): Fraction(1, 2)})
    assert [type(c) for _, c in q.terms] == [int, Fraction]
    for field, coefficient in ((gf7, Fraction(1, 2)), (gf7, Fp(3, 11)), (RATIONAL, Fp(3, 7))):
        with pytest.raises(ValueError, match="^mixed coefficient fields: "):
            Element.from_terms(S2, BOX, {(0, 0): coefficient}, field=field)
    assert Element.from_terms(S2, BOX, {}).field == RATIONAL
    assert e.scale(3).terms == (((0, 0), Fp(1, 7)), ((2, 0), Fp(2, 7)))


R2 = ModuleShape((SERIES, SERIES))
DUAL = ModuleShape((INVERSE, SERIES))
FIELD_PAIRS = {
    "Q/GF7": (Fraction(1, 2), Fp(2, 7), "mixed coefficient fields: prime:7 and rational"),
    "GF7/GF11": (Fp(2, 7), Fp(3, 11), "mixed coefficient fields: prime:11 and prime:7"),
}


def _in(shape, terms):
    return Element.from_terms(shape, BOX, terms)


# each operation on a coefficient x of one field and y of another, with
# equal exponents (colliding) or not; a product collides when two of its
# products land on one exponent
MIXING = {
    "from_terms": lambda x, y, hit: Element.from_terms(
        S2, BOX, [((1, -1), x), ((1, -1) if hit else (0, 0), y)]),
    "+": lambda x, y, hit: _in(S2, {(1, -1): x}) + _in(S2, {(1, -1) if hit else (0, 0): y}),
    "-": lambda x, y, hit: _in(S2, {(1, -1): x}) - _in(S2, {(1, -1) if hit else (0, 0): y}),
    "linear_combine": lambda x, y, hit: linear_combine(
        [(1, _in(S2, {(1, -1): x})), (1, _in(S2, {(1, -1) if hit else (0, 0): y}))]),
    "ring_act": lambda x, y, hit: ring_act(
        _in(R2, {(0, 0): x, (1, 0): x} if hit else {(0, 0): x}),
        _in(S2, {(1, -1): y, (0, -1): y})),
    "matlis_pair": lambda x, y, hit: matlis_pair(
        _in(DUAL, {(-1, 1): x, (-2, 1): x} if hit else {(-1, 1): x}),
        _in(S2, {(1, -2): y, (2, -2): y} if hit else {(1, -2): y})),
}


@pytest.mark.parametrize("hit", [True, False], ids=["colliding", "disjoint"])
@pytest.mark.parametrize("pair", sorted(FIELD_PAIRS))
@pytest.mark.parametrize("operation", sorted(MIXING))
def test_mixed_fields_are_refused_in_every_frame(operation, pair, hit):
    """Coefficients of two fields never share an element: every operation
    that brings two together raises the frame ValueError, in either order,
    whether or not their exponents collide."""
    x, y, message = FIELD_PAIRS[pair]
    for first, second in ((x, y), (y, x)):
        with pytest.raises(ValueError) as refused:
            MIXING[operation](first, second, hit)
        assert str(refused.value) == message


# Operands of the frame table, two terms each (one for none): the key
# names the coefficient types, "T" holds residues mod two primes and "e" is
# an empty operand.
OPERANDS = {
    "i": [2, -3],
    "q": [Fraction(1, 2), Fraction(-5, 3)],
    "p": [Fp(3, 7), Fp(5, 7)],
    "I": [2, Fraction(3, 4)],
    "P": [2, Fp(3, 7)],
    "F": [Fraction(1, 2), Fp(3, 7)],
    "T": [Fp(3, 7), Fp(2, 11)],
    "e": [],
}
OUTCOMES = {
    "Q": "rational",  # a product over Q
    "7": "prime:7",  # a product over GF(7)
    "x": "mixed coefficient fields: prime:7 and rational",
    "y": "mixed coefficient fields: prime:11 and prime:7",
}
# row a, column b: the field of a*b, or the error of building a, then b,
# then of bringing them together
FRAMES = """
   iqpIPFTe
i  QQxQxxyQ
q  QQxQxxyQ
p  xx7x7xyx
I  QQxQxxyQ
P  xx7x7xyx
F  xxxxxxxx
T  yyyyyyyy
e  QQxQxxyQ
"""


def _table(grid):
    """{row key + column key: outcome code}."""
    header, *rows = grid.strip("\n").splitlines()
    table = {}
    for row in rows:
        key, cells = row.split()
        table.update({key + column: code
                      for column, code in zip(header.strip(), cells, strict=True)})
    return table


CASES = _table(FRAMES)


def test_the_tables_cover_every_combination():
    assert set(CASES) == {"".join(k) for k in product(OPERANDS, repeat=2)}
    assert set(CASES.values()) == set(OUTCOMES)


def _operand(shape, kind, sign):
    return Element.from_terms(shape, BOX, [((k, sign * k), c)
                                           for k, c in enumerate(OPERANDS[kind])])


def test_frames_match_the_recorded_table():
    """Each kind gets its field at construction (ints join the other terms'
    field, an empty operand is rational), or raises there; two operands of
    one field multiply as the oracle does, and of two fields raise before
    any product is formed."""
    for key, code in CASES.items():
        expected = OUTCOMES[code]
        try:
            a = _operand(R2, key[0], 1)
            b = _operand(S2, key[1], -1)
            out = ring_act(a, b)
        except ValueError as exc:
            assert str(exc) == expected, key
            continue
        assert out.field.descriptor == expected, key
        want, exact = oracle_product(a.term_map(), b.term_map(), S2.roles, BOX.bounds)
        assert coefficient_strings(out.term_map()) == coefficient_strings(want), key
        assert out.exact == exact, key
