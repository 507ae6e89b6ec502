"""The element record, two-element sums and the coefficient lowering.

Elements are immutable records whose equality ignores ``exact``; ``+``,
``-``, ``scale`` and ``linear_combine`` are checked against a plain-dict
oracle; and ``_lowered`` is held to a table of outcomes, one per
combination of operand coefficient types, recorded from the two-pass
implementation it replaced.
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
    _lowered,
    linear_combine,
)
from cohdual.fields import Fp
from conftest import coefficient_strings

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


# coefficient draws per field: an int draw may vanish, a field draw may not
FIELDS = {
    "int": lambda rng: rng.choice((1, -1, 2, -3, 0)),
    "rational": lambda rng: Fraction(rng.choice((1, -1, 2, -3, 0)), rng.randint(1, 4)),
    "prime:7": lambda rng: Fp(rng.randint(0, 6), 7),
}
EXPONENTS = [(x, y) for x in range(3) for y in range(0, -3, -1)]


def _draw(rng, field):
    terms = {e: FIELDS[field](rng) for e in rng.sample(EXPONENTS, rng.randint(0, 4))}
    return Element.from_terms(S2, BOX, terms, exact=rng.random() < 0.7)


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


# Operands of the lowering contract, two terms each (one for none): the key
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
    "=": None,  # multiply as is
    "a": ("Q", 6), "b": ("Q", 24), "c": ("Q", 36), "d": ("Q", 72),  # over one denominator
    "7": ("p", 7),  # residues mod 7
    "x": "mixed coefficient fields: prime:7 and rational",
    "y": "mixed coefficient fields: prime:11 and prime:7",
    "z": "mixed coefficient fields: prime:11 and prime:7 and rational",
}
# one pair: row a, column b
ONE_PAIR = """
   iqpIPFTe
i  =a7==xy=
q  acxbxxz=
p  7x7x7xy=
I  =bx=xxz=
P  =x7x=xy=
F  xxxxxxz=
T  yzyzyzy=
e  ========
"""
# two pairs: row (a1, b1), columns (a2, b2) in blocks of a2
TWO_PAIRS = """
     iiiiiiii qqqqqqqq pppppppp IIIIIIII PPPPPPPP FFFFFFFF TTTTTTTT eeeeeeee
     iqpIPFTe iqpIPFTe iqpIPFTe iqpIPFTe iqpIPFTe iqpIPFTe iqpIPFTe iqpIPFTe
ii   =====xy= ==x=xxz= =x=x=xy= ==x=xxz= =x=x=xy= xxxxxxz= yzyzyzy= ========
iq   =ax=xxza acxbxxza xxxxxxza =bx=xxza xxxxxxza xxxxxxza zzzzzzza aaaaaaaa
ip   =x7x=xy7 xxxxxxz7 7x7x7xy7 xxxxxxz7 =x7x=xy7 xxxxxxz7 yzyzyzy7 77777777
iI   ==x=xxz= ==x=xxz= xxxxxxz= ==x=xxz= xxxxxxz= xxxxxxz= zzzzzzz= ========
iP   =x=x=xy= xxxxxxz= =x=x=xy= xxxxxxz= =x=x=xy= xxxxxxz= yzyzyzy= ========
iF   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
iT   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
ie   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
qi   =ax=xxza acxbxxza xxxxxxza =bx=xxza xxxxxxza xxxxxxza zzzzzzza aaaaaaaa
qq   =cx=xxzc ccxdxxzc xxxxxxzc =dx=xxzc xxxxxxzc xxxxxxzc zzzzzzzc cccccccc
qp   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
qI   =bx=xxzb bdxbxxzb xxxxxxzb =bx=xxzb xxxxxxzb xxxxxxzb zzzzzzzb bbbbbbbb
qP   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
qF   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
qT   zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz
qe   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
pi   =x7x=xy7 xxxxxxz7 7x7x7xy7 xxxxxxz7 =x7x=xy7 xxxxxxz7 yzyzyzy7 77777777
pq   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
pp   =x7x=xy7 xxxxxxz7 7x7x7xy7 xxxxxxz7 =x7x=xy7 xxxxxxz7 yzyzyzy7 77777777
pI   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
pP   =x7x=xy7 xxxxxxz7 7x7x7xy7 xxxxxxz7 =x7x=xy7 xxxxxxz7 yzyzyzy7 77777777
pF   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
pT   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
pe   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
Ii   ==x=xxz= ==x=xxz= xxxxxxz= ==x=xxz= xxxxxxz= xxxxxxz= zzzzzzz= ========
Iq   =bx=xxzb bdxbxxzb xxxxxxzb =bx=xxzb xxxxxxzb xxxxxxzb zzzzzzzb bbbbbbbb
Ip   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
II   ==x=xxz= ==x=xxz= xxxxxxz= ==x=xxz= xxxxxxz= xxxxxxz= zzzzzzz= ========
IP   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
IF   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
IT   zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz
Ie   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
Pi   =x=x=xy= xxxxxxz= =x=x=xy= xxxxxxz= =x=x=xy= xxxxxxz= yzyzyzy= ========
Pq   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
Pp   =x7x=xy7 xxxxxxz7 7x7x7xy7 xxxxxxz7 =x7x=xy7 xxxxxxz7 yzyzyzy7 77777777
PI   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
PP   =x=x=xy= xxxxxxz= =x=x=xy= xxxxxxz= =x=x=xy= xxxxxxz= yzyzyzy= ========
PF   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
PT   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
Pe   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
Fi   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
Fq   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
Fp   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
FI   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
FP   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
FF   xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx xxxxxxzx zzzzzzzx xxxxxxxx
FT   zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz
Fe   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
Ti   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
Tq   zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz
Tp   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
TI   zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz
TP   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
TF   zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz zzzzzzzz
TT   yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy zzzzzzzy yzyzyzyy yyyyyyyy
Te   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
ei   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
eq   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
ep   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
eI   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
eP   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
eF   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
eT   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
ee   =a7==xy= acxbxxz= 7x7x7xy= =bx=xxz= =x7x=xy= xxxxxxz= yzyzyzy= ========
"""


def _table(grid, header_rows):
    """{row key + column key: outcome code}; a column's key is read down the
    header lines."""
    lines = grid.strip("\n").splitlines()
    columns = ["".join(chars) for chars in zip(
        *(line.replace(" ", "") for line in lines[:header_rows]))]
    table = {}
    for line in lines[header_rows:]:
        key, *cells = line.split()
        table.update({key + column: code
                      for column, code in zip(columns, "".join(cells), strict=True)})
    return table


def _operand(kind):
    return [((k, -k), c) for k, c in enumerate(OPERANDS[kind])]


CASES = {**_table(ONE_PAIR, 1), **_table(TWO_PAIRS, 2)}


def test_the_tables_cover_every_combination():
    assert set(CASES) == {"".join(k) for r in (2, 4) for k in product(OPERANDS, repeat=r)}
    assert set(CASES.values()) == set(OUTCOMES)


@pytest.mark.parametrize("pairs", [2, 4], ids=["one-pair", "two-pairs"])
def test_lowering_matches_the_recorded_table(pairs):
    for key, code in CASES.items():
        if len(key) != pairs:
            continue
        args = [(_operand(key[k]), _operand(key[k + 1])) for k in range(0, pairs, 2)]
        expected = OUTCOMES[code]
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                _lowered(args)
            assert str(err.value) == expected, key
            continue
        got = _lowered(args)
        if expected is None:
            assert got is None, key
            continue
        lowered, p, den = got
        assert (("Q", den) if p is None else ("p", p)) == expected and (p is None) != (
            den is None), key
        live = [pair for pair in args if pair[0] and pair[1]]
        assert len(lowered) == len(live), key
        for (a_low, b_low), (a, b) in zip(lowered, live):
            assert [e for e, _ in a_low] == [e for e, _ in a], key
            assert [e for e, _ in b_low] == [e for e, _ in b], key
            a_coeffs = [(n, c) for (_, n), (_, c) in zip(a_low, a)]
            b_coeffs = [(n, c) for (_, n), (_, c) in zip(b_low, b)]
            for (na, ca), (nb, cb) in product(a_coeffs, b_coeffs):
                assert type(na) is int and type(nb) is int, key
                if p is None:
                    assert Fraction(na * nb, den) == ca * cb, key
                else:
                    assert Fp(na * nb, p) == ca * cb, key
