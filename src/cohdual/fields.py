"""Exact coefficient scalars: arbitrary-precision rationals and prime fields.

Rational coefficients are plain ``fractions.Fraction`` values or ``int``s
(an int compares and hashes consistently with the equal Fraction).
Prime-field coefficients are ``Fp`` residues.  The field descriptor is part
of every element's frame: its ``coerce`` brings each scalar into the field
once, as the element is built, and refuses one of another field.  The
kernels then multiply and add these scalars as they are (an ``Fp`` by an
``Fp``, a ``Fraction`` by an ``int``), with no integer stand-ins, so no
kernel needs the prime.  Each ``Fp`` operator reads its other operand by one
rule, ``Fp._residue``.  A prime p must lie below 3.3 * 10^24 (about 2^81).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import re

_SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # used with fullmatch; ASCII digits only


# Miller-Rabin on these bases decides every n below the bound (Sorenson and Webster, 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    if n >= _PRIME_BOUND:
        raise ValueError(f"a prime field needs p below {_PRIME_BOUND}")
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 is an odd number times 2^s
    for a in _BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False  # a is a witness that n is composite
    return True


def _inverse(value: int, p: int) -> int:
    if value % p == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(value, p - 2, p)


class Fp:
    """Residue modulo a prime p, normalised to the range [0, p).

    Supports mixed arithmetic with ``int`` (taken mod p).  Equality with an
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

    def _residue(self, other):
        """The other operand's residue as an int, or None; an Fp of another p is refused."""
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields: {self.p} and {other.p}")
            return other.value
        return other if isinstance(other, int) else None

    def __add__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.value + o, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.value - o, self.p)

    def __rsub__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(o - self.value, self.p)

    def __mul__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.value * o, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        return Fp(_inverse(self.value, self.p), self.p)

    def __truediv__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.value * _inverse(o, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(o * _inverse(self.value, self.p), self.p)

    def __pow__(self, exponent: int):
        base = _inverse(self.value, self.p) if exponent < 0 else self.value
        return Fp(pow(base, abs(exponent), self.p), self.p)

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
