"""Shaped sparse elements over a truncation box, with exact scalars.

Every module handled by this package is a product of one-variable directions.
A variable either carries a *series* role (exponents run over 0, 1, 2, ...)
or an *inverse* role (exponents run over 0, -1, -2, ...).  Choosing a role
for each variable fixes a monomial basis, and the classical modules over the
power-series ring R = k[[X_1, ..., X_n]] that we compute with are all of this
form:

* the ring R itself: every role series;
* the injective hull of the residue field, realised as inverse polynomials
  with the socle at exponent zero: every role inverse;
* local cohomology of R supported in the ideal of the first i variables:
  inverse on those i variables, series on the rest;
* the Matlis dual of that local cohomology module: the roles flipped.

Multiplication by a variable raises the matching exponent by one.  In a
series direction that is the ordinary product.  In an inverse direction a
term whose exponent would become positive is annihilated; this contraction
is the module structure on inverse polynomials, not an approximation error.

A :class:`TruncationBox` clips every direction to a finite window so that
elements stay finite objects.  Any operation that pushes a genuinely nonzero
term through a series-side wall records the loss by clearing the element's
``exact`` flag.  Contraction kills on the inverse side keep ``exact`` set.

Terms are made in two places.  Products go through :func:`_product`, the
kernel entry of :func:`ring_act` and :func:`duality.matlis_pair` (a product
both contracted and outside the box is a kill, never a loss).
:func:`_shifted`, the one loop with walls, shifts the longer operand by
each term c*X^a of the shorter one and scales it by c, multiplying the
field's own scalars (an int times an int stays an int); with two or more
terms on each side the pieces are added.
Every sum of terms goes through :func:`_summed`: products,
:meth:`Element.from_terms` and :func:`linear_combine` call it, and so does
``+``, directly on the two term tuples (``a - b`` is ``a + -b``).  A map
that keeps terms distinct and in lexicographic order (a shift, a derivation,
a quotient, a negation, a layer split) builds its term tuple directly.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import inf
from operator import add, le
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .fields import RATIONAL, Field, field_of, mixed_fields

SERIES = "series"
INVERSE = "inverse"

Exponents = tuple[int, ...]


def _check_index(n: int, i: int) -> None:
    """Refuse a local-cohomology index outside 1..n, before any work on n."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")


def _unsupported(op: str, left, right):
    raise TypeError(f"unsupported operand type(s) for {op}: "
                    f"'{type(left).__name__}' and '{type(right).__name__}'")


class _Record:
    """Refuses outright the tuple operations a record has no use for:
    NotImplemented would let the tuple base repeat or concatenate."""

    __slots__ = ()

    def __mul__(self, other):
        _unsupported("*", self, other)

    def __rmul__(self, other):
        _unsupported("*", other, self)

    def __radd__(self, other):
        _unsupported("+", other, self)


class ModuleShape(_Record, NamedTuple("ModuleShape", [("roles", tuple)])):
    """Role assignment for the variables, one of SERIES/INVERSE per slot."""

    __slots__ = ()

    def __new__(cls, roles: tuple[str, ...]):
        for r in roles:
            if r not in (SERIES, INVERSE):
                raise ValueError(f"unknown role: {r!r}")
        return tuple.__new__(cls, (roles,))

    def __add__(self, other):
        _unsupported("+", self, other)

    @property
    def nvars(self) -> int:
        return len(self.roles)

    def role(self, j: int) -> str:
        return self.roles[j]

    def dual(self) -> "ModuleShape":
        """Flip every role; applying it twice gives the shape back."""
        flip = {SERIES: INVERSE, INVERSE: SERIES}
        return ModuleShape(tuple(flip[r] for r in self.roles))

    def drop(self, j: int) -> "ModuleShape":
        return ModuleShape(self.roles[:j] + self.roles[j + 1:])

    @classmethod
    def series_shape(cls, n: int) -> "ModuleShape":
        """All-series shape: the ring of power series itself."""
        return cls((SERIES,) * n)

    @classmethod
    def inverse_shape(cls, n: int) -> "ModuleShape":
        """All-inverse shape: inverse polynomials with socle at zero."""
        return cls((INVERSE,) * n)

    @classmethod
    def cohomology_shape(cls, n: int, i: int) -> "ModuleShape":
        """Inverse on the first i variables, series on the remaining n - i."""
        _check_index(n, i)
        return cls((INVERSE,) * i + (SERIES,) * (n - i))


class TruncationBox(_Record, NamedTuple("TruncationBox", [("bounds", tuple)])):
    """Per-variable exponent bounds.

    A series exponent e is admissible when 0 <= e <= bound; an inverse
    exponent when -bound <= e <= 0.  Bounds are nonnegative integers.
    """

    __slots__ = ()

    def __new__(cls, bounds: tuple[int, ...]):
        for b in bounds:
            if not isinstance(b, int) or b < 0:
                raise ValueError(f"box bounds must be nonnegative integers: {bounds}")
        return tuple.__new__(cls, (bounds,))

    @classmethod
    def uniform(cls, n: int, bound: int) -> "TruncationBox":
        return cls((bound,) * n)

    @property
    def nvars(self) -> int:
        return len(self.bounds)

    def bound(self, j: int) -> int:
        return self.bounds[j]

    def drop(self, j: int) -> "TruncationBox":
        return TruncationBox(self.bounds[:j] + self.bounds[j + 1:])

    def __add__(self, other: "TruncationBox") -> "TruncationBox":
        if len(other.bounds) != len(self.bounds):
            raise ValueError("cannot add boxes over different variable counts")
        return TruncationBox(tuple(a + b for a, b in zip(self.bounds, other.bounds)))

    def admits(self, shape: ModuleShape, exponents: Exponents) -> bool:
        lo, hi, _ = _window(shape.roles, self.bounds)
        return all(map(le, lo, exponents)) and all(map(le, exponents, hi))


class Element(NamedTuple):
    """A finite sum of scaled monomials in one frame: a shape, a box and a field.

    ``terms`` is kept sorted lexicographically by exponent vector and never
    contains zero coefficients, each one of ``field``; two elements are equal
    exactly when their frames and term lists agree.  The ``exact`` flag is
    bookkeeping, not part of the value: it is true while no operation has
    discarded an out-of-box term.  ``e._replace(exact=False)`` is a copy
    with the flag cleared.
    """

    shape: ModuleShape
    box: TruncationBox
    field: Field
    terms: tuple[tuple[Exponents, object], ...]
    exact: bool = True

    def __eq__(self, other):
        return isinstance(other, Element) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    @classmethod
    def from_terms(
        cls,
        shape: ModuleShape,
        box: TruncationBox,
        terms: Mapping[Exponents, object] | Iterable[tuple[Exponents, object]],
        exact: bool = True,
        field: Field | None = None,
    ) -> "Element":
        """Validating constructor: checks arity, roles and box membership, and
        brings each coefficient into the field (None: that of the coefficients,
        Q if all are ints) once; over GF(p) an int becomes its residue."""
        if len(shape.roles) != len(box.bounds):
            raise ValueError("shape and box disagree on the variable count")
        lo, hi, _ = _window(shape.roles, box.bounds)
        nvars = len(lo)
        items = [(tuple(e), c) for e, c in (
            terms.items() if isinstance(terms, Mapping) else terms)]
        for exps, c in items:
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if not (all(map(le, lo, exps)) and all(map(le, exps, hi))):
                raise ValueError(f"exponent vector {exps} violates the shape or box")
            if field is None and type(c) is not int:
                field = field_of(c)
        if field is None:  # every coefficient is an int, or there are none
            field = RATIONAL
        coerce = field.coerce
        return cls(shape, box, field, _summed([(e, coerce(c)) for e, c in items]), exact)

    @classmethod
    def zero(cls, shape: ModuleShape, box: TruncationBox, field: Field) -> "Element":
        return cls(shape, box, field, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Exponents):
        """Coefficient at an exponent vector, 0 when the monomial is absent."""
        return dict(self.terms).get(tuple(exponents), 0)

    def term_map(self) -> dict[Exponents, object]:
        return dict(self.terms)

    def scale(self, scalar) -> "Element":
        return linear_combine([(scalar, self)])

    def __add__(self, other: "Element") -> "Element":
        _check_frame(self, other)
        return _element((self.shape, self.box, self.field,
                          _summed(self.terms + other.terms), self.exact and other.exact))

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":  # negating keeps the terms nonzero and in order
        return Element(self.shape, self.box, self.field,
                       tuple([(e, -c) for e, c in self.terms]), self.exact)

    __mul__, __rmul__, __radd__ = _Record.__mul__, _Record.__rmul__, _Record.__radd__

    def __repr__(self):
        body = " + ".join(f"{c}*x^{list(e)}" for e, c in self.terms) or "0"
        flag = "" if self.exact else ", inexact"
        return f"<Element {body}{flag}>"


def monomial(shape: ModuleShape, box: TruncationBox, exponents: Exponents,
             coefficient=1) -> Element:
    return Element.from_terms(shape, box, {tuple(exponents): coefficient})


def linear_combine(pairs: Iterable[tuple[object, Element]]) -> Element:
    """Sum of scalar multiples of elements sharing one frame.

    Each scalar is brought into the elements' field as a coefficient is.
    The result is exact only when every input is exact.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty linear combination (shape unknown)")
    first = pairs[0][1]
    coerce = first.field.coerce
    items = []
    for scalar, elem in pairs:
        _check_frame(first, elem)
        if type(scalar) is int and scalar == 1:  # then 1 * c is c
            items += elem.terms
        elif scalar:
            scalar = coerce(scalar)
            items += [(e, scalar * c) for e, c in elem.terms]
    return Element(first.shape, first.box, first.field, _summed(items),
                   all(e.exact for _, e in pairs))


def _check_frame(a: Element, b: Element) -> None:
    """Refuse two elements of different frames, testing identity first."""
    if (a.shape is not b.shape and a.shape != b.shape
            or a.box is not b.box and a.box != b.box):
        raise ValueError("linear_combine requires a common shape and box")
    _check_field(a, b)


def _check_field(a: Element, b: Element) -> None:
    """Refuse two elements over different fields; a product, whose operands'
    shapes differ, tests only this."""
    if a.field is not b.field and a.field != b.field:
        raise mixed_fields(a.field, b.field)


def _summed(items) -> tuple:
    """Canonical terms of ``(exponents, coefficient)`` items: equal exponents
    added, zero sums dropped, sorted (keys are unique by then, so the sort
    never compares coefficients)."""
    acc: dict[Exponents, object] = {}
    for e, c in items:
        acc[e] = acc[e] + c if e in acc else c
    return tuple(sorted([item for item in acc.items() if item[1]]))


_element = partial(tuple.__new__, Element)  # Element(...) minus its Python __new__


@lru_cache(maxsize=256)
def _window(roles: tuple[str, ...], bounds: tuple[int, ...]):
    """(lo, hi, kill) of a shape in a box; kill is 0 on inverse coordinates."""
    lo = tuple(0 if r == SERIES else -b for r, b in zip(roles, bounds))
    hi = tuple(b if r == SERIES else 0 for r, b in zip(roles, bounds))
    return lo, hi, tuple(inf if r == SERIES else 0 for r in roles)


def _product(a_terms, b_terms, lo, hi, kill):
    """Finished ``(terms, dropped)`` of a*b in lo..hi, the walls of :func:`_shifted`."""
    if not (a_terms and b_terms):
        return (), False
    if len(b_terms) < len(a_terms):
        a_terms, b_terms = b_terms, a_terms
    terms, dropped = _shifted(a_terms, b_terms, lo, hi, kill)
    return (terms if len(a_terms) == 1 else _summed(terms)), dropped


def _shifted(ones, terms, lo, hi, kill):
    """Canonical ``terms`` times each term c*X^a of ``ones``: shifted by a, scaled by c.
    Past hi is a kill (exact) if past ``kill`` somewhere, else a loss; below lo
    (None: cannot happen) is a loss.  No product vanishes, and one term keeps
    ``terms`` distinct and in order: only the pieces of several need summing."""
    out = []
    dropped = False
    for shift, c in ones:
        for e, x in terms:
            e = tuple(map(add, shift, e))
            if not all(map(le, e, hi)):
                if all(map(le, e, kill)):
                    dropped = True
            elif lo is None or all(map(le, lo, e)):
                out.append((e, c * x))
            else:
                dropped = True
    return tuple(out), dropped


def ring_act(r: Element, m: Element) -> Element:
    """Act by a polynomial r (all exponents >= 0) on a shaped element m.

    Monomials multiply by adding exponent vectors.  On an inverse-role
    coordinate a positive result annihilates the term (contraction); that is
    exact module arithmetic.  On a series-role coordinate a result beyond the
    box is discarded and clears the ``exact`` flag of the output.

    The result lives in m's frame.  r must share m's field but may be
    declared over any shape; what matters is that its stored exponents are
    nonnegative.
    """
    r_shape, _, _, r_terms, r_exact = r
    shape, box, field, m_terms, m_exact = m
    if len(r_shape.roles) != len(shape.roles):
        raise ValueError("operands disagree on the variable count")
    _check_field(r, m)
    # a series-shaped r holds nonnegative exponents by its box; other shapes are scanned
    if INVERSE in r_shape.roles and any(x < 0 for e, _ in r_terms for x in e):
        e = next(e for e, _ in r_terms if min(e) < 0)
        raise ValueError(f"ring element has a negative exponent: {e}")
    _, hi, kill = _window(shape.roles, box.bounds)
    # r's exponents are nonnegative and m lies in the box: nothing falls below it
    terms, dropped = _product(r_terms, m_terms, None, hi, kill)
    return _element((shape, box, field, terms, r_exact and m_exact and not dropped))


def derivation_act(j: int, m: Element) -> Element:
    """Formal partial derivative along variable j.

    On a series direction the usual rule applies: c*X^e maps to (c*e)*X^(e-1)
    and constants die.  On an inverse direction the labels carry the socle at
    exponent zero, so the monomial labelled e is the Laurent monomial of
    degree e - 1 in the standard quotient presentation of inverse
    polynomials; differentiating there multiplies by e - 1 and lowers the
    label.  With this rule multiplication and differentiation satisfy the
    Weyl relation on every direction, and the compatibility law
    d(r.m) = d(r).m + r.d(m) holds wherever no truncation loss occurs.

    A term pushed below the inverse-side wall of the box is discarded and
    clears ``exact`` (unless its derived coefficient already vanished, as can
    happen over a prime field).
    """
    if not 0 <= j < len(m.shape.roles):
        raise ValueError(f"variable index out of range: {j}")
    series = m.shape.roles[j] == SERIES
    floor = -m.box.bounds[j]
    terms = []
    dropped = False
    for e, c in m.terms:
        coeff = (e[j] if series else e[j] - 1) * c
        if not coeff:
            continue
        if not series and e[j] - 1 < floor:
            dropped = True
            continue
        terms.append((e[:j] + (e[j] - 1,) + e[j + 1:], coeff))
    # lowering one coordinate is injective and keeps the lexicographic order
    return _element((m.shape, m.box, m.field, tuple(terms), m.exact and not dropped))


def quotient_by_series_var(j: int, m: Element) -> Element:
    """Quotient by the submodule generated by a series variable.

    Keeps the terms with exponent zero at position j and deletes that
    coordinate, producing an element over one variable fewer.  Only a
    series-role coordinate may be divided out.
    """
    if not 0 <= j < m.shape.nvars:
        raise ValueError(f"variable index out of range: {j}")
    if m.shape.role(j) != SERIES:
        raise ValueError(f"variable {j} has inverse role; cannot form this quotient")
    shape = m.shape.drop(j)
    box = m.box.drop(j)
    # the kept terms agree at j, so deleting it keeps them distinct and in order
    terms = tuple((e[:j] + e[j + 1:], c) for e, c in m.terms if e[j] == 0)
    return Element(shape, box, m.field, terms, m.exact)
