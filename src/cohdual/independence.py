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
  d_j, and for the contraction kill on positive Y-exponents.  Dominance is
  settled before any product; s itself is never built as an element, its
  support is read off the integer sums of the product kernel, which takes
  each d_j prebuilt, made once per (power, lmax) and cached.  A window too
  short to conclude names the least one that would do, or None where no
  window ever can.

A verified tail plus the pigeonhole on distinct growth rates is what the
equivalence search over shifted windows (:func:`shift_equiv_window`)
consumes: profiles of distinct powers admit no shift witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import mod, rshift

from .algebra import (
    INVERSE,
    SERIES,
    Element,
    ModuleShape,
    TruncationBox,
    _Units,
    _accumulate,
    _unpacked,
    _window,
)

D_SHAPE = ModuleShape((SERIES, INVERSE))


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


class CertificateError(RuntimeError):
    """Internal inconsistency: the verified tail contradicts the analysis."""


@dataclass(frozen=True)
class DeltaSequence:
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


@dataclass(frozen=True)
class ShiftWitness:
    """Certifies first[shift_left + l] = second[shift_right + l] + offset for l >= 1."""

    shift_left: int
    shift_right: int
    offset: int


@dataclass(frozen=True)
class ShiftSearch:
    """Outcome of a bounded search for a shift witness.

    ``status`` is "witness" (with the lexicographically least witness),
    "none" (every candidate pair had enough overlap and all failed), or
    "inconclusive" (some candidate pairs overlapped in fewer than 3 points
    and could not be tested).
    """

    status: str
    witness: ShiftWitness | None = None


@dataclass(frozen=True)
class RDecomposition:
    """r = X^(a+1) * h + X^a * g with g nonzero in Y alone, b = ord_Y(g)."""

    a: int
    h: Element
    g: Element
    b: int


@dataclass(frozen=True)
class IndependenceCertificate:
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


def make_d(power: int, lmax: int, box: TruncationBox | None = None) -> Element:
    """Truncation of sum_l Y^(-l^power) X^l at X-degree lmax.

    The default box is exactly wide enough; an explicit box must contain
    every term (X-bound at least lmax, Y-bound at least lmax^power).
    """
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power}")
    if lmax < 0:
        raise ValueError(f"lmax must be nonnegative, got {lmax}")
    if box is None:
        box = TruncationBox((lmax, lmax ** power))
    if box.nvars != 2:
        raise ValueError("shape and box disagree on the variable count")
    if box.bounds[0] < lmax or box.bounds[1] < lmax ** power:
        raise ValueError(f"box {box.bounds} too small for power={power}, lmax={lmax}")
    # ascending X-degree is the canonical order, and the check above admits every term
    return Element(D_SHAPE, box, tuple(((l, -(l ** power)), 1) for l in range(lmax + 1)))


@lru_cache(maxsize=8)
def _family(build, power: int, lmax: int) -> _Units:
    """d_power truncated at lmax, as built by ``build``, in the product
    kernel's prebuilt form: exponent columns with unit coefficients."""
    return _Units(build(power, lmax).terms)


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
    return _profile([e for e, _ in reversed(d.terms)], lo, hi)


def _profile(exponents, lo: int, hi: int) -> DeltaSequence:
    """Least Y-exponent per X-degree in lo..hi among (x, y) pairs given in
    descending order (the last write per X is its least Y)."""
    return DeltaSequence(lo, tuple(map(dict(exponents).get, range(lo, hi + 1))))


def decompose_r(r: Element) -> RDecomposition:
    """Split a nonzero polynomial along its X-order.

    With a the least X-exponent present, g collects the X^a layer as a
    polynomial in Y alone, b is the Y-order of g, and h is what remains
    after dividing the higher layers by X^(a+1).
    """
    if r.shape != ModuleShape.series_shape(2):
        raise ValueError("decomposition expects a polynomial over two series variables")
    if r.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if not r.exact:
        raise InexactElementError("refusing to decompose a lossy polynomial")
    a = r.terms[0][0][0]
    # each part shifts X by a constant: its terms stay in the box, distinct and in order
    g = Element(r.shape, r.box, tuple(((0, y), c) for (x, y), c in r.terms if x == a))
    h = Element(r.shape, r.box,
                tuple(((x - a - 1, y), c) for (x, y), c in r.terms if x != a))
    b = g.terms[0][0][1]
    return RDecomposition(a, h, g, b)


def fit_shift_form(seq: DeltaSequence, power: int, tail_start: int
                   ) -> tuple[int, int] | None:
    """Fit seq(l) = b - (l - a)^power on the tail, or report that none fits.

    Searches a in [0, tail_start] with b >= 0 derived from the first tail
    entry, checking every window point from tail_start on.  Returns the
    lexicographically least fitting pair; for power 1 only a + b is
    identifiable, so ties are real there and the least pair is a
    convention.  Any vanishing coefficient in the tail rules out a fit.
    """
    if power < 1:
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
            ok = True
            for l in range(l_lo, l_hi + 1):
                av = s1.value(left + l)
                bv = s2.value(right + l)
                if (av is None) != (bv is None):
                    ok = False
                    break
                if av is None:
                    continue
                diff = av - bv
                if offset is None:
                    offset = diff
                elif offset != diff:
                    ok = False
                    break
            if ok:
                return ShiftSearch("witness",
                                   ShiftWitness(left, right, offset or 0))
    return ShiftSearch("inconclusive" if saw_short else "none")


def auto_truncation(r_list: tuple[Element, ...], lmax: int) -> TruncationBox:
    """Box wide enough that forming sum r_j . d_j loses nothing.

    X-bound lmax plus the largest X-degree among the coefficients; Y-bound
    lmax^m0 plus the largest Y-degree plus one, with m0 the top nonzero
    index (an empty or all-zero list gets the minimal box for m0 = 1).
    """
    m0 = 0
    max_x = 0
    max_y = 0
    for j, r in enumerate(r_list, start=1):
        if r.is_zero:
            continue
        m0 = j
        max_x = max(max_x, max(e[0] for e, _ in r.terms))
        max_y = max(max_y, max(e[1] for e, _ in r.terms))
    if m0 == 0:
        m0 = 1
    return TruncationBox((lmax + max_x, lmax ** m0 + max_y + 1))


def _min_y_degree(r: Element) -> int:
    return min(e[1] for e, _ in r.terms)


def independence_certificate(r_list: tuple[Element, ...], lmax: int
                             ) -> IndependenceCertificate:
    """Certify that sum r_j . d_j is nonzero with the forced tail profile.

    Reads (a, b) off the top nonzero coefficient and computes the first
    degree from which every competing contribution is strictly dominated.
    At least 3 tail points are demanded; fewer raises
    :class:`InconclusiveWindowError` with a window estimate before any
    product is formed.  Otherwise the combination is summed inside an
    automatically sized box (so nothing is lost) as plain ints, its profile
    is read off the nonzero sums, and it must equal b - (l-a)^m0 on the
    whole tail.  All-zero input raises :class:`DegenerateInputError`.
    """
    r_list = tuple(r_list)
    if not r_list:
        raise DegenerateInputError("no coefficient polynomials given")
    for r in r_list:
        if r.shape != ModuleShape.series_shape(2):
            raise ValueError("coefficients must be polynomials over two series variables")
        if not r.exact:
            raise InexactElementError("coefficient polynomials must be exact")
    if all(r.is_zero for r in r_list):
        raise DegenerateInputError("every coefficient polynomial is zero")
    m0 = max(j for j, r in enumerate(r_list, start=1) if not r.is_zero)
    box = auto_truncation(r_list, lmax)
    if lmax < 0:  # make_d's own check, made before the dominance analysis
        raise ValueError(f"lmax must be nonnegative, got {lmax}")

    dec = decompose_r(r_list[m0 - 1])
    a, b = dec.a, dec.b
    h_margin = None if dec.h.is_zero else _min_y_degree(dec.h)
    lower = [
        (j, _min_y_degree(r))
        for j, r in enumerate(r_list[: m0 - 1], start=1)
        if not r.is_zero
    ]

    def leading(t: int) -> bool:
        """The top coefficient's own conditions at t = l - a >= 1, which
        hold from some least t on (for m0 = 1 the h-part is constant)."""
        lead = t ** m0
        if lead < b:
            return False  # the witness term itself would be killed
        return h_margin is None or lead - (t - 1) ** m0 > b - h_margin

    def dominated(l: int) -> bool:
        t = l - a
        if t < 1 or not leading(t):
            return False
        lead = t ** m0
        for j, margin in lower:
            if not lead - l ** j > b - margin:
                return False
        return True

    suffix = 0  # dominated(l) is False for l <= a, so the scan stops there at the latest
    while dominated(lmax - suffix):
        suffix += 1
    if suffix < 3:
        if m0 == 1 and h_margin is not None and b - h_margin >= 1:
            raise InconclusiveWindowError(None)  # t - (t - 1) = 1 for every l
        # Every condition holds from t = last on (b and the margins are >= 0):
        # t >= b + 1 settles the witness and, for m0 >= 2, the h-part, as
        # t^m0 - (t-1)^m0 >= t; t > a gives l < 2t, so for j < m0
        # t^m0 - l^j > t^(m0-1) * (t - 2^(m0-1)) >= b + 1.  A run of three
        # thus ends by l = a + last + 2.  leading(t) is monotone in t, and so
        # is dominated(a + t) when no margin exceeds b: t^m0 / l^j grows with
        # t, so once t^m0 - l^j > b - margin >= 0 it stays so.  The scan
        # starts at the least t of the monotone one, found by bisection.
        last = max(a + 1, 2 ** (m0 - 1) + b + 1)
        monotone = all(margin <= b for _, margin in lower)
        first, top = 1, last
        while first < top:
            mid = (first + top) // 2
            held = dominated(a + mid) if monotone else leading(mid)
            first, top = (first, mid) if held else (mid + 1, top)
        run = 0
        for l in range(a + first, a + last + 3):
            run = run + 1 if dominated(l) else 0
            if run == 3:
                break
        raise InconclusiveWindowError(l)
    tail_start = lmax - suffix + 1

    _, hi, kill = _window(D_SHAPE.roles, box.bounds)
    # make_d is looked up here, so a replaced builder is a cache key of its own
    acc, p, _, dropped, layout = _accumulate(
        [(r.terms, _family(make_d, j, lmax))
         for j, r in enumerate(r_list, start=1) if not r.is_zero],
        None, hi, kill)
    if dropped:
        raise CertificateError("the automatically sized box lost terms")
    # residues mod p, numerators over a common denominator, or unlowered sums
    keys = sorted(compress(acc, map(mod, acc.values(), repeat(p)) if p else acc.values()),
                  reverse=True)
    if layout is not None:  # X is the top field, so the last key per X has its least Y
        keys = _unpacked(dict(zip(map(rshift, keys, repeat(layout.shifts[0])), keys)).values(),
                         layout)
    profile = _profile(keys, 0, lmax)
    expected = tuple(b - (l - a) ** m0 for l in range(tail_start, lmax + 1))
    if profile.entries[tail_start:] != expected:
        l, want = next((l, want) for l, want in enumerate(expected, start=tail_start)
                       if profile.entries[l] != want)
        raise CertificateError(f"profile at degree {l} is {profile.entries[l]}, expected {want}")

    return IndependenceCertificate(
        m0=m0, a=a, b=b, lmax=lmax, tail_start=tail_start,
        delta=profile, decomposition=dec, nonzero=True, box=box,
    )
