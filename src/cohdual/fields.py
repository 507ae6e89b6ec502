"""Exact coefficient scalars: arbitrary-precision rationals and prime fields.

Rational coefficients are plain ``fractions.Fraction`` values or ``int``s
(an int compares and hashes consistently with the equal Fraction).
Prime-field coefficients are ``Fp`` residues.  The field descriptor is part
of every element's frame: its ``coerce`` brings each scalar into the field
once, as the element is built, and refuses one of another field.  The
kernels then multiply and add these scalars as they are (an ``Fp`` by an
``Fp``, a ``Fraction`` by an ``int``), with no integer stand-ins, so no
kernel needs the prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import re

_SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # used with fullmatch; ASCII digits only


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Fp:
    """Residue modulo a prime p, normalised to the range [0, p).

    Supports mixed arithmetic with ``int`` (coerced mod p).  Equality with an
    ``int`` also reduces mod p; the hash is that of the normalised residue,
    so only the canonical small representative hashes consistently.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        _set_value(self, value % p)
        _set_p(self, p)

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("Fp values are immutable")

    def __reduce__(self):  # copies and pickles rebuild rather than set slots
        return Fp, (self.value, self.p)

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields: {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        if type(other) is Fp and other.p == self.p:  # the common case skips _coerce
            return Fp(self.value + other.value, self.p)
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Fp and other.p == self.p:  # the common case skips _coerce
            return Fp(self.value - other.value, self.p)
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(o.value - self.value, self.p)

    def __mul__(self, other):
        if type(other) is Fp and other.p == self.p:  # the common case skips _coerce
            return Fp(self.value * other.value, self.p)
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return Fp(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return Fp(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


_set_value, _set_p = Fp.value.__set__, Fp.p.__set__  # the slots, past the immutability guard


class RationalField:
    """Descriptor for exact rational coefficients."""

    __slots__ = ()  # no instance attributes, so every assignment is refused
    descriptor = "rational"
    one = Fraction(1)

    @staticmethod
    def from_int(value: int) -> Fraction:
        return Fraction(value)

    @staticmethod
    def parse_scalar(text: str) -> Fraction:
        if (match := _SCALAR_RE.fullmatch(text)) is None:
            raise ValueError(f"not an integer or integer fraction: {text!r}")
        num, den = match.groups()
        if den is None:
            return Fraction(int(num))
        if not int(den):
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))

    def coerce(self, value):
        """An int or a Fraction as it is (by exact type: no bool, no subclass)."""
        if type(value) is int or type(value) is Fraction:
            return value
        raise mixed_fields(self, field_of(value))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """Descriptor for coefficients in the prime field of ``p`` elements."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, val):  # immutable: one descriptor per p is shared
        raise AttributeError("PrimeField descriptors are immutable")

    def __reduce__(self):  # copies and pickles rebuild rather than set slots
        return PrimeField, (self.p,)

    @property
    def descriptor(self) -> str:
        return f"prime:{self.p}"

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    def from_int(self, value: int) -> Fp:
        return Fp(value, self.p)

    def parse_scalar(self, text: str) -> Fp:
        if (match := _SCALAR_RE.fullmatch(text)) is None:
            raise ValueError(f"not an integer or integer fraction: {text!r}")
        num, den = match.groups()
        if den is not None:
            d = Fp(int(den), self.p)
            if not d:
                raise ValueError(f"denominator {den} vanishes mod {self.p}")
            return Fp(int(num), self.p) * d.inverse()
        return Fp(int(num), self.p)

    def coerce(self, value) -> Fp:
        """An int as its residue, an Fp of this p as it is."""
        if type(value) is Fp and value.p == self.p:
            return value
        if type(value) is int:
            return Fp(value, self.p)
        raise mixed_fields(self, field_of(value))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONAL = RationalField()

Field = RationalField | PrimeField


# one descriptor per p: tested for primality once, and matched on identity
_prime_field = lru_cache(maxsize=64)(PrimeField)


def field_of(value) -> Field:
    """The field of a scalar: Q for an int or a Fraction, GF(p) for an Fp."""
    if type(value) is Fp:
        return _prime_field(value.p)
    if type(value) is int or type(value) is Fraction:
        return RATIONAL
    raise ValueError(f"not an exact scalar: {value!r}")


def mixed_fields(a: Field, b: Field) -> ValueError:
    """The error for two fields meeting in one computation."""
    first, second = sorted((a.descriptor, b.descriptor))
    return ValueError(f"mixed coefficient fields: {first} and {second}")


def field_from_descriptor(text: str) -> Field:
    """Rebuild a field from its descriptor string ("rational" or "prime:p")."""
    if text == "rational":
        return RATIONAL
    digits = text[len("prime:"):]
    if text.startswith("prime:") and digits.isascii() and digits.isdigit():
        return _prime_field(int(digits))
    raise ValueError(f"unknown field descriptor: {text!r}")
