"""Minimal-exponent profiles and linear-independence certificates.

Everything here lives over two variables, with the dual-module shape: X is
the series direction, Y the inverse direction.  The family under study is

    d_power = sum over l >= 0 of Y^(-l^power) * X^l,

truncated at a chosen X-degree.  The gap between consecutive Y-exponents
grows at a rate that separates the different powers, and that separation
survives multiplication by nonzero polynomials.  The certificate below
makes this quantitative for a finite truncation window:

* ``delta`` records, for each X-degree l, the minimal Y-exponent of the
  coefficient (or the fact that the coefficient vanishes);
* ``decompose_r`` splits a polynomial r into X^(a+1) * h + X^a * g with g a
  nonzero polynomial in Y alone and b the Y-order of g;
* for a combination s = sum of r_j . d_j with top nonzero index m0, once l
  clears an explicit dominance threshold every competing contribution to
  the X^l coefficient sits strictly above b - (l-a)^m0, so the profile of s
  on the tail is forced to be exactly that polynomial in l.  The threshold
  accounts for the h-part of the top coefficient, for every lower-index
  d_j, and for the contraction kill on positive Y-exponents; each of its
  conditions fails on one interval of degrees, found by bisection in
  O(m0 log t) steps.  s is never formed: the tail is the closed form, and
  the prefix is read degree by degree, as the least y - (l - x)^j over the
  terms X^x Y^y of the r_j, re-summed only where the least ones cancel.
  One pass checks the coefficients, the top one is split once, as
  ``decompose_r`` does after its own checks, the analysis and the whole
  profile are memoized on the few integers they depend on, and the records
  are built from the checked values unchecked.  A window too short to
  conclude names the least one that would do, or None where none can.  The
  check line ``independence-random-combinations`` forms s as elements,
  compares the whole profile and rebuilds the top coefficient from its split.

A verified tail plus the pigeonhole on distinct growth rates is what the
equivalence search over shifted windows (:func:`shift_equiv_window`)
consumes: profiles of distinct powers admit no shift witness.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import repeat
from operator import sub
from typing import NamedTuple

from .algebra import INVERSE, SERIES, Element, ModuleShape, TruncationBox, _element, _summed
from .fields import RATIONAL, Field, mixed_fields

D_SHAPE = ModuleShape((SERIES, INVERSE))
R_SHAPE = ModuleShape((SERIES, SERIES))  # the coefficients r_j


class InexactElementError(ValueError):
    """Raised when an operation needs an exact element but got a lossy one."""


class DegenerateInputError(ValueError):
    """Raised when every coefficient polynomial of a combination is zero."""


class InconclusiveWindowError(Exception):
    """The truncation window ends before the dominance tail can be verified.

    ``required_lmax`` is the least window whose last three degrees are
    dominated, or None when no finite window can help: for a top index of
    1 whose h-part sits at Y-order b - 1 or lower, the h-condition fails
    for every l.
    """

    def __init__(self, required_lmax: int | None):
        self.required_lmax = required_lmax
        if required_lmax is None:
            msg = "dominance never takes hold for this combination"
        else:
            msg = f"window too short; an X-window of {required_lmax} would do"
        super().__init__(msg)


class DeltaSequence(NamedTuple):
    """Minimal Y-exponent per X-degree over a window of degrees.

    ``entries[k]`` belongs to X-degree ``start + k`` and is either an
    integer (the minimal exponent among the surviving terms) or None when
    the coefficient at that degree vanishes.  The two cases are distinct:
    a minimal exponent of 0 is a nonzero coefficient touching the socle.
    """

    start: int
    entries: tuple[int | None, ...]

    @property
    def end(self) -> int:
        return self.start + len(self.entries) - 1

    def value(self, l: int) -> int | None:
        if not self.start <= l <= self.end:
            raise IndexError(f"degree {l} outside window [{self.start}, {self.end}]")
        return self.entries[l - self.start]


class ShiftWitness(NamedTuple):
    """Certifies first[shift_left + l] = second[shift_right + l] + offset for l >= 1."""

    shift_left: int
    shift_right: int
    offset: int


class ShiftSearch(NamedTuple):
    """Outcome of a bounded search for a shift witness.

    ``status`` is "witness" (with the lexicographically least witness),
    "none" (every candidate pair had enough overlap and all failed), or
    "inconclusive" (some candidate pairs overlapped in fewer than 3 points
    and could not be tested).
    """

    status: str
    witness: ShiftWitness | None = None


class RDecomposition(NamedTuple):
    """r = X^(a+1) * h + X^a * g with g nonzero in Y alone, b = ord_Y(g)."""

    a: int
    h: Element
    g: Element
    b: int


class IndependenceCertificate(NamedTuple):
    """A verified dominance tail for one combination of the d-family.

    Records the top nonzero index m0, the shifts (a, b) read off the top
    coefficient, the window and tail actually verified, the full profile,
    the decomposition they came from, and the nonzero confirmation.
    """

    m0: int
    a: int
    b: int
    lmax: int
    tail_start: int
    delta: DeltaSequence
    decomposition: RDecomposition
    nonzero: bool
    box: TruncationBox


# the records a certificate builds from values its one pass has checked, minus their __new__
_box = partial(tuple.__new__, TruncationBox)
_profile = partial(tuple.__new__, DeltaSequence)
_decomposition = partial(tuple.__new__, RDecomposition)
_certificate = partial(tuple.__new__, IndependenceCertificate)


def make_d(power: int, lmax: int, box: TruncationBox | None = None,
           field: Field = RATIONAL) -> Element:
    """Truncation of sum_l Y^(-l^power) X^l at X-degree lmax, over the field.

    The default box is exactly wide enough; an explicit box must contain
    every term (X-bound at least lmax, Y-bound at least lmax^power).
    """
    if type(power) is not int or power < 1:  # a bool too, as lmax
        raise ValueError(f"power must be a positive integer, got {power}")
    _check_lmax(lmax)
    if box is None:
        box = TruncationBox((lmax, lmax ** power))
    if box.nvars != 2:
        raise ValueError("shape and box disagree on the variable count")
    if box.bounds[0] < lmax or box.bounds[1] < lmax ** power:
        raise ValueError(f"box {box.bounds} too small for power={power}, lmax={lmax}")
    # ascending X-degree is the canonical order, and the check above admits every term
    one = field.coerce(1)
    return Element(D_SHAPE, box, field,
                   tuple(((l, -(l ** power)), one) for l in range(lmax + 1)))


def _check_lmax(lmax: int) -> None:
    if type(lmax) is not int:  # a bool too, which a memo would take for 0 or 1
        raise ValueError(f"lmax must be an integer, got {lmax!r}")
    if lmax < 0:
        raise ValueError(f"lmax must be nonnegative, got {lmax}")


@lru_cache(maxsize=32)
def _tails(power: int, lmax: int, b: int) -> tuple[int, ...]:
    """b - k^power for k = 0..lmax, with ``pow``: a tail's closed form, its
    degree l at k = l - a, so a profile slices its tail and adds nothing.
    One entry per (m0, lmax, b); m0 <= 4 and b <= 4 at one lmax need 20, and
    the 32 held are at most 32 * (largest lmax + 1) exponents."""
    return tuple(map(sub, repeat(b), map(pow, range(lmax + 1), repeat(power))))


@lru_cache(maxsize=128)
def _entries(prefix: tuple, power: int, lmax: int, b: int, a: int) -> tuple[int | None, ...]:
    """The whole profile, the prefix then its tail sliced from ``_tails``, held
    for the last 128 keys: at most 128 * (largest lmax + 1) pointers, plus the prefixes."""
    return prefix + _tails(power, lmax, b)[len(prefix) - a:lmax + 1 - a]


def delta(d: Element, window: tuple[int, int] | None = None) -> DeltaSequence:
    """Minimal Y-exponent profile of a dual-shape element over two variables.

    Within the window of X-degrees, each entry is the least Y-exponent of
    the X^l coefficient, or None when that coefficient is empty.  The input
    must be exact: on a lossy element the true minimum may have left the
    box, and the profile would silently lie.
    """
    if d.shape != D_SHAPE:
        raise ValueError("profile requires the two-variable dual shape (series, inverse)")
    if not d.exact:
        raise InexactElementError("cannot read a minimal-exponent profile off a lossy element")
    lo, hi = window if window is not None else (0, d.box.bounds[0])
    if not 0 <= lo <= hi <= d.box.bounds[0]:
        reason = "is reversed: LO > HI" if lo > hi else "outside the element's X-range"
        raise ValueError(f"window [{lo}, {hi}] {reason}")
    # terms descend here, so the last write per X is its least Y
    least = dict(e for e, _ in reversed(d.terms))
    return DeltaSequence(lo, tuple(map(least.get, range(lo, hi + 1))))


def decompose_r(r: Element) -> RDecomposition:
    """Split a nonzero polynomial along its X-order.

    With a the least X-exponent present, g collects the X^a layer as a
    polynomial in Y alone, b is the Y-order of g, and h is what remains
    after dividing the higher layers by X^(a+1).
    """
    if r.shape != R_SHAPE:
        raise ValueError("decomposition expects a polynomial over two series variables")
    if r.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if not r.exact:
        raise InexactElementError("refusing to decompose a lossy polynomial")
    return _split(r)


def _split(r: Element) -> RDecomposition:
    """:func:`decompose_r` of a checked, nonzero, exact polynomial.  Each part
    shifts X by a constant, so its terms stay in the box, distinct and in order."""
    shape, box, field, terms, _ = r
    (a, b), _ = terms[0]
    g, h = [], []
    for (x, y), c in terms:
        if x == a:
            g.append(((0, y), c))
        else:
            h.append(((x - a - 1, y), c))
    return _decomposition((a, _element((shape, box, field, tuple(h), True)),
                           _element((shape, box, field, tuple(g), True)), b))


def fit_shift_form(seq: DeltaSequence, power: int, tail_start: int
                   ) -> tuple[int, int] | None:
    """Fit seq(l) = b - (l - a)^power on the tail, or report that none fits.

    Searches a in [0, tail_start] with b >= 0 derived from the first tail
    entry, checking every window point from tail_start on.  Returns the
    lexicographically least fitting pair; for power 1 only a + b is
    identifiable, so ties are real there and the least pair is a
    convention.  Any vanishing coefficient in the tail rules out a fit.
    """
    if type(power) is not int or power < 1:  # a bool too, as lmax
        raise ValueError(f"power must be a positive integer, got {power}")
    if tail_start < seq.start:
        raise ValueError("tail_start precedes the window")
    points = [(l, seq.value(l)) for l in range(tail_start, seq.end + 1)]
    if len(points) < 3:
        raise ValueError("window must extend at least 3 points past tail_start")
    if any(v is None for _, v in points):
        return None
    l0, v0 = points[0]
    for a in range(0, tail_start + 1):  # b is fixed by a, so the first fit is the least
        b = v0 + (l0 - a) ** power
        if b >= 0 and all(v == b - (l - a) ** power for l, v in points):
            return a, b
    return None


def shift_equiv_window(s1: DeltaSequence, s2: DeltaSequence, search_bound: int
                       ) -> ShiftSearch:
    """Search for shifts aligning two profiles up to a constant offset.

    Tries every pair of start shifts up to the bound; a pair is testable
    when the shifted windows overlap in at least 3 compared points
    (comparison starts one past the shifts).  Vanishing coefficients must
    line up and impose no constraint on the offset; if the whole overlap
    vanishes the offset defaults to 0.  Returns the first (hence
    lexicographically least) witness, or "none" when every pair was
    testable and failed, or "inconclusive" when some untestable pair
    remains.
    """
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    saw_short = False
    for left in range(search_bound + 1):
        for right in range(search_bound + 1):
            l_lo = max(1, s1.start - left, s2.start - right)
            l_hi = min(s1.end - left, s2.end - right)
            if l_hi - l_lo + 1 < 3:
                saw_short = True
                continue
            offset = None
            for l in range(l_lo, l_hi + 1):
                av, bv = s1.value(left + l), s2.value(right + l)
                if (av is None) != (bv is None):
                    break
                if av is not None:
                    if offset is not None and av - bv != offset:
                        break
                    offset = av - bv
            else:
                return ShiftSearch("witness", ShiftWitness(left, right, offset or 0))
    return ShiftSearch("inconclusive" if saw_short else "none")


def auto_truncation(r_list: tuple[Element, ...], lmax: int) -> TruncationBox:
    """Box wide enough that forming sum r_j . d_j loses nothing.

    X-bound lmax plus the largest X-degree among the coefficients; Y-bound
    lmax^m0 plus the largest Y-degree plus one, with m0 the top nonzero
    index (an empty or all-zero list gets the minimal box for m0 = 1).
    """
    live = [(j, r.terms) for j, r in enumerate(r_list, start=1) if r.terms]
    m0 = live[-1][0] if live else 1
    # terms ascend lexicographically, so the last has the largest X-degree
    max_x = max([0, *[terms[-1][0][0] for _, terms in live]])
    max_y = max([0, *[e[1] for _, terms in live for e, _ in terms]])
    return TruncationBox((lmax + max_x, lmax ** m0 + max_y + 1))


def independence_certificate(r_list: tuple[Element, ...], lmax: int
                             ) -> IndependenceCertificate:
    """Certify that sum r_j . d_j is nonzero with the forced tail profile.

    Reads (a, b) off the top nonzero coefficient and, from the intervals on
    which the dominance conditions fail, the first degree from which every
    competing contribution is strictly dominated.  The coefficients share
    one field.  At least 3 tail points are demanded; fewer raises
    :class:`InconclusiveWindowError` with the least window that would do,
    before the profile is read.  The profile (see :func:`_least_exponents`)
    is b - (l-a)^m0 on the whole tail.  All-zero input raises
    :class:`DegenerateInputError`.
    """
    r_list = tuple(r_list)
    if not r_list:
        raise DegenerateInputError("no coefficient polynomials given")
    first = r_list[0].field
    live, margins, max_x, max_y = [], (), 0, 0  # one pass: checks, box and least Y-degrees
    for j, r in enumerate(r_list, start=1):
        shape, _, field, terms, exact = r
        if shape is not R_SHAPE and shape != R_SHAPE:
            raise ValueError("coefficients must be polynomials over two series variables")
        if not exact:
            raise InexactElementError("coefficient polynomials must be exact")
        if field is not first and field != first:
            raise mixed_fields(first, field)
        if terms:
            ys = [e[1] for e, _ in terms]
            live.append((j, r))
            margins += ((j, min(ys)),)
            max_x, max_y = max(max_x, terms[-1][0][0]), max(max_y, *ys)
    if not live:
        raise DegenerateInputError("every coefficient polynomial is zero")
    _check_lmax(lmax)  # make_d's own checks, made before the box and any memo
    m0 = live[-1][0]
    box = _box(((lmax + max_x, lmax ** m0 + max_y + 1),))  # as auto_truncation

    dec = _split(live[-1][1])
    a, _, g, b = dec
    h_margin = min(ys[len(g.terms):], default=None)  # ys is the top's; its X^a layer leads
    tail_start = _tail_start(m0, a, b, h_margin, margins[:-1], lmax)
    if type(tail_start) is tuple:
        raise InconclusiveWindowError(*tail_start)
    profile = _least_exponents(live, a, b, tail_start, lmax)
    return _certificate((m0, a, b, lmax, tail_start, _profile((0, profile)), dec, True, box))


@lru_cache(maxsize=512)
def _tail_start(m0: int, a: int, b: int, h_margin: int | None, lower: tuple, lmax: int
                ) -> int | tuple[int | None]:
    """The dominance analysis, on integers alone: the first tail degree, or
    ``(required_lmax,)`` for the caller to raise as
    :class:`InconclusiveWindowError`, so that the memo keeps that verdict too."""
    if m0 == 1 and h_margin is not None and b - h_margin >= 1:
        return (None,)  # t - (t - 1) = 1 for every l
    fails = _failing_intervals(m0, a, b, h_margin, lower)
    reach, t = lmax - a, 0  # l <= a always fails; past the last failure up to lmax all holds
    for lo, hi in fails:
        if lo <= reach and hi > t:
            t = hi if hi < reach else reach
    if lmax - a - t < 3:  # fewer than 3 tail points, a + 1 + t to lmax
        t = 1  # the least t with t, t + 1 and t + 2 outside every interval
        for lo, hi in sorted(fails):
            if lo - t >= 3:
                break
            t = max(t, hi + 1)
        return (a + t + 2,)
    return a + 1 + t


def _failing_intervals(m0: int, a: int, b: int, h_margin: int | None,
                       lower: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """The t = l - a >= 1 at which dominance fails, as nonempty intervals.

    The top coefficient's own conditions hold from some least t on.  Lower
    index j needs p_j(t) = t^m0 - (a + t)^j - (b - margin_j) > 0; p_j'
    changes sign once on t > 0, from - to +, as t^(m0-1) / (a + t)^(j-1)
    grows for j < m0, so p_j(t + 1) - p_j(t) does too and p_j fails on one
    interval around its least point; if p_j fails at t = 1, the interval
    starts there and its least point need not be found.  Every condition
    holds from t = last on (b and the margins are >= 0): t >= b + 1 settles
    the witness and, for m0 >= 2, the h-part, as t^m0 - (t-1)^m0 >= t;
    t > a gives l < 2t, so for j < m0 t^m0 - l^j > t^(m0-1) * (t - 2^(m0-1))
    >= b + 1.  Each end is found by bisection: O(m0 log last).  The case m0 = 1 with
    b - h_margin >= 1, where the h-part never holds, is the caller's."""
    last = max(a + 1, 2 ** (m0 - 1) + b + 1)
    lo, hi = 1, last
    while lo < hi:  # the witness term survives, the h-part stays above it
        t = (lo + hi) // 2
        top = t ** m0
        if top >= b and (h_margin is None or top - (t - 1) ** m0 > b - h_margin):
            hi = t
        else:
            lo = t + 1
    fails = [(1, lo - 1)]
    for j, margin in lower:
        c = b - margin  # p_j(t) > 0 is t^m0 - (a + t)^j > c
        first = lo = 1
        if 1 - (a + 1) ** j > c:  # p_j holds at t = 1, so fails only around its least point
            hi = last
            while lo < hi:  # the least t with p_j(t + 1) > p_j(t)
                t = (lo + hi) // 2
                if (t + 1) ** m0 - (a + t + 1) ** j > t ** m0 - (a + t) ** j:
                    hi = t
                else:
                    lo = t + 1
            if lo ** m0 - (a + lo) ** j > c:
                continue
            low, lo, hi = lo, 1, lo
            while lo < hi:  # p_j fails from here ...
                t = (lo + hi) // 2
                if t ** m0 - (a + t) ** j <= c:
                    hi = t
                else:
                    lo = t + 1
            first, lo = lo, low
        hi = last
        while lo < hi:  # ... until it holds again
            t = (lo + hi) // 2
            if t ** m0 - (a + t) ** j > c:
                hi = t
            else:
                lo = t + 1
        fails.append((first, lo - 1))
    return [(lo, hi) for lo, hi in fails if lo <= hi]


def _least_exponents(live, a: int, b: int, tail_start: int,
                     lmax: int) -> tuple[int | None, ...]:
    """Least Y-exponent of each X^0..X^lmax coefficient of sum r_j . d_j.

    ``live`` holds (j, r_j) for the nonzero r_j, the top index m0 last.
    From tail_start on the dominance analysis forces the profile to be
    b - (l - a)^m0, which ``_entries`` joins to the prefix read here.
    Before it, a term c X^x Y^y of r_j gives at each l >= x the candidate
    y - (l - x)^j, computed as it is read and killed if positive.  Degree by
    degree, the profile is the least candidate; where two or more terms
    reach it their coefficients are added, and only if they cancel are the
    candidates at that degree re-read and re-summed."""
    entries = []
    for l in range(tail_start):
        least, total, many = 1, 0, False
        for j, r in live:
            for (x, y), c in r.terms:  # x ascends, so the rest start past l
                if x > l:
                    break
                v = y - (l - x) ** j
                if v < least:
                    least, total, many = v, c, False
                elif v == least:
                    total, many = total + c, True
        if least > 0:
            entries.append(None)
        elif not many or total:
            entries.append(least)
        else:  # the tied terms cancel: every candidate at l is re-summed
            sums = _summed([(v, c) for j, r in live for (x, y), c in r.terms
                            if x <= l and (v := y - (l - x) ** j) <= 0])
            entries.append(sums[0][0] if sums else None)
    return _entries(tuple(entries), live[-1][0], lmax, b, a)
