"""Profiles, decompositions, shift search, and the independence certificate."""

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import cohdual.independence as independence
from cohdual.algebra import (
    Element,
    ModuleShape,
    TruncationBox,
    monomial,
    ring_act,
)
from cohdual.independence import (
    DegenerateInputError,
    DeltaSequence,
    InconclusiveWindowError,
    InexactElementError,
    auto_truncation,
    decompose_r,
    delta,
    fit_shift_form,
    independence_certificate,
    make_d,
    shift_equiv_window,
)
from cohdual.fields import RATIONAL, Fp, PrimeField, field_of
from conftest import (
    COEFFICIENT_KINDS,
    int_coefficient,
    oracle_analysis_inputs,
    oracle_certificate,
    oracle_dominance,
    oracle_min_profile,
    oracle_product,
    oracle_required_lmax,
    oracle_tail_start,
)

S2 = ModuleShape.series_shape(2)
RBOX = TruncationBox.uniform(2, 3)


def poly(terms):
    return Element.from_terms(S2, RBOX, terms)


def _over_one_field(term_maps, box=RBOX):
    """Polynomials of the term maps in one frame, over the field of their
    coefficients: an int joins it, and every one an int is rational."""
    field = next((field_of(c) for terms in term_maps for c in terms.values()
                  if type(c) is not int), RATIONAL)
    return tuple(Element.from_terms(S2, box, terms, field=field) for terms in term_maps)


def test_make_d_terms_and_default_box():
    d = make_d(2, 5)
    assert d.box.bounds == (5, 25)
    assert d.term_map() == {(l, -l * l): 1 for l in range(6)}
    assert d.exact
    d3 = make_d(3, 2)
    assert d3.term_map() == {(0, 0): 1, (1, -1): 1, (2, -8): 1}


@pytest.mark.parametrize("lmax", [True, False, 3.0, "3"], ids=repr)
def test_a_bool_or_non_int_lmax_is_refused(lmax):
    """A bool is an int to arithmetic and equal to 0 or 1 in a memo's key,
    so both functions refuse it, and any other non-int, before a memo is
    consulted."""
    memos = (independence._tails, independence._tail_start, independence._entries)
    held = [memo.cache_info() for memo in memos]
    message = f"^lmax must be an integer, got {re.escape(repr(lmax))}$"
    with pytest.raises(ValueError, match=message):
        make_d(2, lmax)
    with pytest.raises(ValueError, match=message):
        independence_certificate((poly({(0, 0): 1}), poly({(1, 1): 2})), lmax)
    assert [memo.cache_info() for memo in memos] == held


@pytest.mark.parametrize("power", [True, 2.0, "2", 0], ids=repr)
def test_a_bool_or_non_int_power_is_refused(power):
    """make_d(True, 3) would build the power-1 family and fit_shift_form
    would fit power 1; a float would reach the box check.  Both functions
    name the power instead, as they do a power below 1."""
    message = f"^power must be a positive integer, got {re.escape(str(power))}$"
    with pytest.raises(ValueError, match=message):
        make_d(power, 3)
    with pytest.raises(ValueError, match=message):
        fit_shift_form(delta(make_d(2, 6)), power, 1)


def test_make_d_box_validation():
    make_d(2, 3, TruncationBox((4, 9)))
    with pytest.raises(ValueError):
        make_d(2, 3, TruncationBox((2, 9)))
    with pytest.raises(ValueError):
        make_d(2, 3, TruncationBox((3, 8)))
    with pytest.raises(ValueError):
        make_d(0, 3)
    for bounds in ((4,), (4, 9, 1)):
        with pytest.raises(ValueError, match="variable count"):
            make_d(2, 3, TruncationBox(bounds))


def test_delta_frozen_profile():
    y = monomial(S2, TruncationBox.uniform(2, 1), (0, 1))
    profile = delta(ring_act(y, make_d(2, 5)), (0, 4))
    assert profile.start == 0
    assert profile.entries == (None, 0, -3, -8, -15)
    assert profile.value(3) == -8
    assert profile.end == 4


def test_delta_matches_min_scan_oracle():
    rng = random.Random(31)
    shape = make_d(1, 1).shape
    for _ in range(60):
        box = TruncationBox((rng.randint(0, 6), rng.randint(0, 9)))
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = (rng.randint(0, box.bounds[0]), -rng.randint(0, box.bounds[1]))
            terms[e] = terms.get(e, 0) + rng.choice((1, -1, 2))
        element = Element.from_terms(shape, box, terms)
        profile = delta(element)
        assert profile.entries == oracle_min_profile(
            element.term_map(), 0, box.bounds[0])


def test_delta_requires_exact_dual_shape():
    d = make_d(2, 3)
    with pytest.raises(InexactElementError):
        delta(d._replace(exact=False))
    with pytest.raises(ValueError):
        delta(monomial(S2, RBOX, (1, 1)))
    with pytest.raises(ValueError):
        delta(d, (0, 5))
    with pytest.raises(ValueError, match=r"window \[3, 1\] is reversed: LO > HI"):
        delta(d, (3, 1))


def test_delta_sequence_window_guard():
    seq = DeltaSequence(2, (0, None, -4))
    assert seq.value(3) is None
    with pytest.raises(IndexError):
        seq.value(1)
    with pytest.raises(IndexError):
        seq.value(5)


def test_decompose_frozen_cases():
    dec = decompose_r(poly({(0, 1): 1}))
    assert (dec.a, dec.b) == (0, 1)
    assert dec.h.is_zero
    assert dec.g.term_map() == {(0, 1): 1}

    dec = decompose_r(poly({(2, 0): 1, (1, 1): 1}))
    assert (dec.a, dec.b) == (1, 1)
    assert dec.h.term_map() == {(0, 0): 1}
    assert dec.g.term_map() == {(0, 1): 1}

    dec = decompose_r(poly({(0, 0): 3}))
    assert (dec.a, dec.b) == (0, 0)
    assert dec.h.is_zero
    assert dec.g.term_map() == {(0, 0): 3}


def test_decompose_reconstructs_randomly():
    """r = X^(a+1) h + X^a g, checked by multiplying back."""
    rng = random.Random(47)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 2), rng.randint(0, 3))
            terms[e] = terms.get(e, 0) + rng.choice((1, -1, 2, -2))
        r = poly(terms)
        if r.is_zero:
            continue
        dec = decompose_r(r)
        shifted_h = ring_act(monomial(S2, RBOX, (dec.a + 1, 0)), dec.h)
        shifted_g = ring_act(monomial(S2, RBOX, (dec.a, 0)), dec.g)
        assert shifted_h + shifted_g == r
        assert all(e[0] == 0 for e, _ in dec.g.terms)
        assert not dec.g.is_zero


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose_r(Element.zero(S2, RBOX, RATIONAL))
    with pytest.raises(InexactElementError):
        decompose_r(poly({(1, 0): 1})._replace(exact=False))
    with pytest.raises(ValueError):
        decompose_r(make_d(1, 2))


def test_fit_recovers_quadratic_tail():
    y = monomial(S2, TruncationBox.uniform(2, 1), (0, 1))
    profile = delta(ring_act(y, make_d(2, 10)))
    assert fit_shift_form(profile, 2, 1) == (0, 1)


def test_fit_is_lex_least_for_linear_tails():
    # b - (l - a) with (a, b) = (2, 3) looks identical to (0, 5)
    seq = DeltaSequence(0, tuple(5 - l for l in range(10)))
    assert fit_shift_form(seq, 1, 2) == (0, 5)


def test_fit_rejections():
    seq = DeltaSequence(0, (0, -1, None, -9, -16))
    assert fit_shift_form(seq, 2, 1) is None
    flat = DeltaSequence(0, (7, 7, 7, 7))
    assert fit_shift_form(flat, 1, 1) is None
    with pytest.raises(ValueError):
        fit_shift_form(DeltaSequence(0, (0, -1, -4)), 2, 1)
    with pytest.raises(ValueError):
        fit_shift_form(DeltaSequence(3, (0, -1, -4, -9)), 2, 1)


def test_shift_search_frozen_witness():
    y = monomial(S2, TruncationBox.uniform(2, 1), (0, 1))
    s1 = delta(ring_act(y, make_d(2, 12)))
    s2 = delta(make_d(2, 12))
    found = shift_equiv_window(s1, s2, 3)
    assert found.status == "witness"
    w = found.witness
    assert (w.shift_left, w.shift_right, w.offset) == (0, 0, 1)
    same = shift_equiv_window(s2, s2, 3)
    assert (same.witness.shift_left, same.witness.shift_right,
            same.witness.offset) == (0, 0, 0)


def test_shift_search_separates_powers():
    profiles = {p: delta(make_d(p, 14)) for p in (1, 2, 3, 4)}
    for p, q in product((1, 2, 3, 4), repeat=2):
        if p == q:
            continue
        assert shift_equiv_window(profiles[p], profiles[q], 5).status == "none"


def test_separation_check_fails_on_a_self_witness_with_an_offset(monkeypatch, capsys):
    """A search whose witness offset defaults to 1 finds each profile shifted
    from itself by 1: the line FAILs and ``cohdual check`` exits 1."""
    import cohdual.checks as checks
    from cohdual.cli import main

    def offset_one(*args):
        found = shift_equiv_window(*args)
        if found.witness is None:
            return found
        return found._replace(witness=found.witness._replace(offset=found.witness.offset or 1))

    monkeypatch.setattr(checks, "shift_equiv_window", offset_one)
    line = checks.separation_pairs()
    assert (line.passed, line.detail) == (False, "power 1 not equivalent to itself")
    assert main(["check", "--suite", "independence"]) == 1
    capsys.readouterr()


def test_shift_search_short_windows_are_inconclusive():
    s1 = DeltaSequence(0, (0, -1, -4, -9))
    s2 = DeltaSequence(0, (5, 5, 5, 5))
    result = shift_equiv_window(s1, s2, 3)
    assert result.status == "inconclusive"
    assert result.witness is None


def test_auto_truncation_frozen():
    zero = Element.zero(S2, RBOX, RATIONAL)
    one = poly({(0, 0): 1})
    y = poly({(0, 1): 1})
    assert auto_truncation((zero, one), 10).bounds == (10, 101)
    assert auto_truncation((one, y), 12).bounds == (12, 146)
    assert auto_truncation((), 10).bounds == (10, 11)


def test_certificate_frozen_examples():
    zero = Element.zero(S2, RBOX, RATIONAL)
    one = poly({(0, 0): 1})
    cert = independence_certificate((zero, one), 10)
    assert (cert.m0, cert.a, cert.b, cert.tail_start) == (2, 0, 0, 1)
    assert cert.nonzero
    assert cert.delta.value(10) == -100

    cert = independence_certificate((one, poly({(0, 1): 1})), 12)
    assert (cert.m0, cert.a, cert.b, cert.tail_start) == (2, 0, 1, 2)

    cert = independence_certificate((poly({(1, 0): 1}),), 10)
    assert (cert.m0, cert.a, cert.b) == (1, 1, 0)


def _oracle_sum(r_list, degrees, box):
    """Terms of sum r_j . d_j on plain dicts, from the d_j terms of the given
    X-degrees, checked lossless."""
    total = {}
    for j, r in enumerate(r_list, start=1):
        if r.is_zero:
            continue
        d_terms = {(l, -(l ** j)): 1 for l in degrees}
        part, exact = oracle_product(r.term_map(), d_terms, ("series", "inverse"), box.bounds)
        assert exact
        for e, c in part.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def test_certificate_combination_matches_oracle():
    """The certified tail really is the profile of an independently
    computed combination, not just of the library's own product."""
    rng = random.Random(59)
    trials = 0
    while trials < 25:
        r_list = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = terms.get(e, 0) + rng.choice((1, -1, 2))
            r_list.append(poly(terms))
        if all(r.is_zero for r in r_list):
            continue
        try:
            cert = independence_certificate(tuple(r_list), 20)
        except InconclusiveWindowError:
            continue
        trials += 1
        total = _oracle_sum(r_list, range(21), cert.box)
        assert total, "oracle combination vanished"
        profile = oracle_min_profile(total, 0, cert.lmax)
        for l in range(cert.tail_start, cert.lmax + 1):
            assert profile[l] == cert.b - (l - cert.a) ** cert.m0


def _random_r_list(rng, coefficient):
    r_list = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        if rng.random() > 0.15:
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = terms.get(e, 0) + coefficient(rng)
        r_list.append(terms)
    return _over_one_field(r_list)


def _assert_certificate_matches_oracle(r_list, lmax):
    cert = independence_certificate(r_list, lmax)
    m0, a, b, profile, tail = oracle_certificate(r_list, lmax)
    assert (cert.m0, cert.a, cert.b) == (m0, a, b)
    assert cert.delta == profile
    assert tail <= cert.tail_start <= lmax - 2


# a nonzero sum with a cancellation between two d_j, in every coefficient path
CANCELLING = {
    # 3 + 4 at X^2 Y^-2 vanishes only mod 7
    "prime:7": ({(0, 0): Fp(3, 7)}, {(0, 2): Fp(4, 7)}),
    # Fractions whose pairs have different denominators (2 and 6)
    "fraction": ({(0, 0): Fraction(1, 2)},
                 {(0, 2): Fraction(-1, 2), (3, 3): Fraction(1, 3)}),
    "int": ({(0, 0): 1}, {(0, 2): -1}),
    "mixed": ({(0, 0): 2}, {(0, 2): Fraction(-2), (3, 0): Fraction(1, 3)}),
}


@pytest.mark.parametrize("kind", sorted(CANCELLING))
def test_certificate_cancellation_matches_oracle(kind):
    r_list = tuple(poly(terms) for terms in CANCELLING[kind])
    _assert_certificate_matches_oracle(r_list, 60)
    assert independence_certificate(r_list, 60).delta.value(2) is None


@pytest.mark.parametrize("draw", [
    int_coefficient, *COEFFICIENT_KINDS["rational"][1:], COEFFICIENT_KINDS["prime:7"][0]],
    ids=["int", "fraction", "mixed", "gf7"])
def test_certificate_matches_element_path(draw):
    """Profile, shifts and tail read off the integer sums agree with the
    combination formed as elements, over every coefficient path."""
    rng = random.Random(61)
    certified = 0
    for _ in range(30):
        r_list = _random_r_list(rng, draw)
        if all(r.is_zero for r in r_list):
            continue
        try:
            _assert_certificate_matches_oracle(r_list, 60)
        except InconclusiveWindowError:
            continue
        certified += 1
    assert certified >= 20


@pytest.mark.parametrize("lmax", range(5))
def test_certificate_short_windows_match_oracle(lmax):
    """Windows of 0-4 degrees: conclusive certificates carry the oracle's
    whole profile, the rest are inconclusive."""
    rng = random.Random(f"short/{lmax}")
    outcomes = set()
    for _ in range(40):
        draw = rng.choice(COEFFICIENT_KINDS[rng.choice(sorted(COEFFICIENT_KINDS))])
        r_list = _random_r_list(rng, draw)
        if all(r.is_zero for r in r_list):
            continue
        try:
            cert = independence_certificate(r_list, lmax)
        except InconclusiveWindowError:
            outcomes.add("inconclusive")
            continue
        outcomes.add("certified")
        assert cert.tail_start == 1 or lmax == 4  # at lmax 3, the shortest tail: 3 points
        profile = oracle_min_profile(_oracle_sum(r_list, range(lmax + 1), cert.box), 0, lmax)
        assert cert.delta == DeltaSequence(0, profile)
    assert "inconclusive" in outcomes
    assert outcomes == ({"inconclusive", "certified"} if lmax >= 3 else {"inconclusive"})


FAMILY_DRAWS = {
    "fraction": COEFFICIENT_KINDS["rational"][1],
    "gf32003": lambda rng: Fp(rng.randint(1, 32002), 32003),
    "int": int_coefficient,
}


def _clear_tail_memos():
    """Empty both memos a profile comes from: its tail's closed form and the
    whole profiles."""
    independence._tails.cache_clear()
    independence._entries.cache_clear()


@pytest.mark.parametrize("kind, lmax", [
    *((kind, lmax) for lmax in (8, 100) for kind in sorted(FAMILY_DRAWS)),
    *((kind, lmax) for lmax in (1000, 3000) for kind in ("fraction", "gf32003"))])
def test_cached_family_certificates_match_oracle(kind, lmax):
    """Certificates read from the memos equal the element-path oracle, first
    with every memo emptied and then with every one held: cold, each (m0,
    lmax, b) has its closed form computed once, each analysis key analysed
    once (an inconclusive one too, as the memo keeps its verdict) and each
    profile key joined once; warm, nothing is computed again."""
    rng = random.Random(f"family/{kind}/{lmax}")
    combinations = [tuple(poly({(rng.randint(0, 3), rng.randint(0, 3)): FAMILY_DRAWS[kind](rng)
                                for _ in range(rng.randint(1, 2))})
                          for _ in range(rng.randint(1, 3)))
                    for _ in range(12)]
    memos = (independence._tails, independence._tail_start, independence._entries)
    _clear_tail_memos()
    independence._tail_start.cache_clear()
    for warmth in ("cold", "warm"):
        before = [memo.cache_info().misses for memo in memos]
        tops, keys, profiles, certified, inconclusive = set(), set(), set(), 0, set()
        for r_list in combinations:
            try:
                _assert_certificate_matches_oracle(r_list, lmax)
            except InconclusiveWindowError:
                inconclusive.add(oracle_analysis_inputs(r_list))
                continue
            cert = independence_certificate(r_list, lmax)
            certified += 1
            tops.add((cert.m0, cert.b))
            keys.add(oracle_analysis_inputs(r_list))
            profiles.add((cert.delta.entries[:cert.tail_start], cert.m0, cert.b, cert.a))
        assert certified >= 6, warmth
        missed = [memo.cache_info().misses - was for memo, was in zip(memos, before)]
        if warmth == "cold":
            assert missed == [len(tops), len(keys) + len(inconclusive), len(profiles)]
        else:
            assert missed == [0, 0, 0]


@pytest.mark.parametrize("terms, required", [
    (({(0, 0): 1}, {(0, 10 ** 7): 1}), 3165),
    (({(0, 5000): 1},), 5002),
    (({}, {(0, 10_600): 1}, {(100, 0): 1}), 103),
], ids=["past-the-old-scan", "top-index-1", "non-monotone"])
def test_required_lmax_is_the_least_window(terms, required):
    """The estimate used to stop at max(4 * lmax, 1000) + a and report that
    no window helps (the first two cases).  In the third, t^3 - (t + 100)^2
    > -10,600 holds at t = 1, 2, 3, fails from 4 to 12 and holds again from
    13 on, so a bisection over it would name 115.  The named window
    certifies, and every shorter one is inconclusive."""
    box = TruncationBox((100, 10 ** 7))
    r_list = tuple(Element.from_terms(S2, box, t) for t in terms)
    with pytest.raises(InconclusiveWindowError) as info:
        independence_certificate(r_list, 2)
    assert info.value.required_lmax == required
    assert independence_certificate(r_list, required).tail_start == required - 2
    for lmax in range(3, required):
        with pytest.raises(InconclusiveWindowError) as info:
            independence_certificate(r_list, lmax)
        assert info.value.required_lmax == required


@pytest.mark.parametrize("kind", sorted(FAMILY_DRAWS))
def test_required_lmax_on_random_combinations(kind):
    """Over random combinations inconclusive at lmax 2 (every one is: three
    tail points need l >= 3): the named window certifies, on its shortest
    tail of 3 points, with the element path's profile, and every shorter one
    is inconclusive, or, only for a top index of 1, no window is named."""
    rng = random.Random(f"required/{kind}")
    named = 0
    for _ in range(40):
        r_list = _random_r_list(rng, FAMILY_DRAWS[kind])
        if all(r.is_zero for r in r_list):
            continue
        with pytest.raises(InconclusiveWindowError) as info:
            independence_certificate(r_list, 2)
        required = info.value.required_lmax
        if required is None:
            assert max(j for j, r in enumerate(r_list, start=1) if not r.is_zero) == 1
            continue
        named += 1
        _assert_certificate_matches_oracle(r_list, required)
        assert independence_certificate(r_list, required).tail_start == required - 2
        for lmax in range(3, required):
            with pytest.raises(InconclusiveWindowError):
                independence_certificate(r_list, lmax)
    assert named >= 25


def test_required_lmax_for_a_huge_x_order():
    """With r_2 = 1 and r_3 = X^(10^12) every dominance condition is
    monotone in l, so the window is found by bisection, not by scanning
    the 10^8 degrees before it: the least t = l - a with t^3 > l^2."""
    a = 10 ** 12
    box = TruncationBox((a, 0))
    r_list = (Element.zero(S2, box, RATIONAL), Element.from_terms(S2, box, {(0, 0): 1}),
              Element.from_terms(S2, box, {(a, 0): 1}))
    with pytest.raises(InconclusiveWindowError) as info:
        independence_certificate(r_list, 10)
    lo, hi = 1, a
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** 3 > (a + mid) ** 2 else (mid + 1, hi)
    assert info.value.required_lmax == a + lo + 2


def test_the_scan_oracle_agrees_on_the_pinned_windows():
    """The degree-by-degree scan names the pinned windows too: 3165, the
    non-monotone 103, and, scanned from just below the answer, X^(10^12)
    with a lower condition at margin 0 and at margin 5 (a dip of about
    10^8 failing degrees)."""
    box = TruncationBox((100, 10 ** 7))
    for terms, required in ((({(0, 0): 1}, {(0, 10 ** 7): 1}), 3165),
                            (({}, {(0, 10_600): 1}, {(100, 0): 1}), 103)):
        r_list = tuple(Element.from_terms(S2, box, t) for t in terms)
        assert oracle_required_lmax(r_list) == required
    a = 10 ** 12
    box = TruncationBox((a, 5))
    for margin in (0, 5):
        r_list = (Element.zero(S2, box, RATIONAL), Element.from_terms(S2, box, {(0, margin): 1}),
                  Element.from_terms(S2, box, {(a, 0): 1}))
        with pytest.raises(InconclusiveWindowError) as info:
            independence_certificate(r_list, 10)
        required = info.value.required_lmax
        dominated, _ = oracle_dominance(r_list)
        assert not dominated(required - 3)
        assert oracle_required_lmax(r_list, required - 40) == required


def _tail_r_list(rng):
    """A combination whose dominance tail has some shape: top index 1-4, a
    witness X^a Y^b, sometimes higher X-layers, and lower coefficients whose
    least Y-degree is often above b.  In a third of the draws, with a from
    20 to 60 and every lower margin just past the most that t = 1..k needs
    (k from 1 to 4), each lower condition holds up to t = k and, for
    j >= 2, often fails on an interval after it."""
    box = TruncationBox((64, 300_000))
    dip = rng.random() < 1 / 3
    m0 = rng.randint(3, 4) if dip else rng.randint(1, 4)
    a = rng.randint(20, 60) if dip else rng.randint(0, 30)
    b = rng.choice((0, 1, rng.randint(0, 12)))
    top = {(a, b): 1}
    if not dip and rng.random() < 0.4:
        top[(a + rng.randint(1, 3), rng.randint(0, 3 * b + 2))] = 1
    k = rng.randint(1, 4)
    r_list = []
    for j in range(1, m0):
        if dip:
            margin = max((a + t) ** j - t ** m0 for t in range(1, k + 1)) + b + rng.randint(1, 6)
        else:
            margin = rng.choice((0, rng.randint(0, b + 2), rng.randint(b, 3000)))
        r_list.append({} if rng.random() < 0.2 else {(rng.randint(0, 3), margin): 1})
    return tuple(Element.from_terms(S2, box, t) for t in (*r_list, top))


def test_tail_start_matches_the_scan_oracle():
    """tail_start equals the scan down from lmax; an inconclusive window
    names the scan's least window (or None, only where the scan finds no
    run).  Over 400 combinations, each at lmax 2 and at a window inside the
    range where the tail moves."""
    rng = random.Random("tail")
    outcomes = {"certified": 0, "named": 0, "none": 0, "dip": 0, "run before a dip": 0}
    for _ in range(400):
        r_list = _tail_r_list(rng)
        dominated, settled = oracle_dominance(r_list)
        shape = "".join("+" if dominated(l) else "-" for l in range(settled))
        # dominated, then not: a tail no bisection on l finds
        outcomes["dip"] += "+-" in shape
        outcomes["run before a dip"] += "+++-" in shape
        for lmax in (2, rng.randint(3, settled + 3)):
            tail = oracle_tail_start(r_list, lmax)
            if lmax - tail >= 2:
                assert independence_certificate(r_list, lmax).tail_start == tail
                outcomes["certified"] += 1
                continue
            with pytest.raises(InconclusiveWindowError) as info:
                independence_certificate(r_list, lmax)
            assert info.value.required_lmax == oracle_required_lmax(r_list)
            outcomes["named" if info.value.required_lmax else "none"] += 1
    assert min(outcomes.values()) >= 4, outcomes


# one coefficient draw per field: the prime fields mix in ints, some
# divisible by p, in every coefficient, the top one included
ORACLE_DRAWS = {
    "int": int_coefficient,
    "rational": COEFFICIENT_KINDS["rational"][1],
    "gf7": COEFFICIENT_KINDS["prime:7"][1],
    "gf32003": lambda rng: (Fp(rng.randint(1, 32002), 32003) if rng.random() < 0.7
                            else rng.choice((32003, -64006, 5))),
}


def _oracle_r_list(rng, draw):
    """1-4 coefficients of up to 4 terms with exponents up to 3.  Sometimes
    r_1 = X - Y plus a higher term (X and -Y cancel along every degree of
    r_1 . d_1), and sometimes a lower coefficient sits far up in Y (a margin
    above b)."""
    count = rng.randint(1, 4)
    r_list = [{} if rng.random() < 0.15 else
              {(rng.randint(0, 3), rng.randint(0, 3)): draw(rng) for _ in range(rng.randint(1, 4))}
              for _ in range(count - 1)]
    if count >= 2 and rng.random() < 0.3:
        c = draw(rng)
        r_list[0] = {(1, 0): c, (0, 1): -c, (rng.randint(1, 3), rng.randint(1, 3)): draw(rng)}
    if count >= 2 and rng.random() < 0.3:
        r_list[rng.randrange(count - 1)] = {(rng.randint(0, 3), rng.randint(20, 40)): draw(rng)}
    r_list.append({(rng.randint(0, 3), rng.randint(0, 3)): draw(rng)
                   for _ in range(rng.randint(1, 4))})
    return _over_one_field(r_list, TruncationBox((3, 40)))


@pytest.mark.parametrize("kind", sorted(ORACLE_DRAWS))
def test_certificates_match_the_oracles(kind):
    """Over 80 combinations per field, at lmax 40: every certificate equals
    the element-path oracle (m0, a, b and the whole profile) and the scan
    oracle (tail_start); every inconclusive window is the scan's."""
    rng = random.Random(f"oracles/{kind}")
    certified = 0
    for _ in range(80):
        r_list = _oracle_r_list(rng, ORACLE_DRAWS[kind])
        tail = oracle_tail_start(r_list, 40)
        if 40 - tail < 2:
            with pytest.raises(InconclusiveWindowError) as info:
                independence_certificate(r_list, 40)
            assert info.value.required_lmax == oracle_required_lmax(r_list)
            continue
        cert = independence_certificate(r_list, 40)
        m0, a, b, profile, _ = oracle_certificate(r_list, 40)
        assert (cert.m0, cert.a, cert.b, cert.tail_start) == (m0, a, b, tail)
        assert cert.delta == profile
        certified += 1
    assert certified >= 50


def test_a_bare_int_that_vanishes_mod_p_is_no_term():
    """In a GF(7) frame an int 14 is 0: (a, b) come from X^2 Y^3, the term
    of the top coefficient that survives, and an r_j of such ints is zero.
    The same ints in a rational frame are another field's and are refused."""
    box, gf7 = TruncationBox((3, 40)), PrimeField(7)
    r_list = (Element.from_terms(S2, box, {(0, 23): Fp(4, 7)}),
              Element.from_terms(S2, box, {(0, 1): 14, (2, 3): 1}, field=gf7))
    cert = independence_certificate(r_list, 40)
    assert (cert.m0, cert.a, cert.b) == (2, 2, 3)
    assert cert.decomposition == decompose_r(Element.from_terms(S2, box, {(2, 3): 1},
                                                                field=gf7))
    assert cert.delta == oracle_certificate(r_list, 40)[3]
    sevens = Element.from_terms(S2, box, {(1, 0): 7}, field=gf7)
    cert = independence_certificate(r_list + (sevens,), 40)
    assert (cert.m0, cert.a, cert.b) == (2, 2, 3)
    with pytest.raises(ValueError, match="^mixed coefficient fields: prime:7 and rational$"):
        independence_certificate(r_list + (Element.from_terms(S2, box, {(1, 0): 7}),), 40)


def _claim_the_tail_from(monkeypatch, t):
    """Make the dominance analysis claim every degree from l = a + t on.  Its
    memo would answer keys it already holds without analysing them, so the
    analysis runs behind an emptied memo of its own, which the undo drops
    with every answer the claim gave."""
    monkeypatch.setattr(independence, "_failing_intervals",
                        lambda *args: [(1, t - 1)] if t > 1 else [])
    monkeypatch.setattr(independence, "_tail_start",
                        lru_cache(maxsize=512)(independence._tail_start.__wrapped__))


PINNED_SEEDS = (1729, 5, 701)  # the seeds whose suite digests are pinned


def _independence_line(seed=None):
    from cohdual.checks import DEFAULT_SEED, run_suite

    report = run_suite("independence", DEFAULT_SEED if seed is None else seed)
    return next(line for line in report.lines
                if line.name == "independence-random-combinations"), report.passed


def _assert_the_check_fails(seed=None):
    line, passed = _independence_line(seed)
    assert not line.passed and not passed
    assert "cross-checks failed on trials [" in line.detail


def test_a_tail_claimed_too_early_fails_the_check(monkeypatch):
    """When the analysis claims dominance from l = a + 1 on, the certificate
    reads b - (l - a)^m0 there: its profile is the element path's exactly
    when that path follows the closed form from a + 1 on, and the check
    line sees the combinations where it does not."""
    _claim_the_tail_from(monkeypatch, 1)
    rng = random.Random("claimed early")
    outcomes = {"same": 0, "differs": 0}
    for _ in range(200):
        r_list = _oracle_r_list(rng, ORACLE_DRAWS[rng.choice(sorted(ORACLE_DRAWS))])
        m0, a, b, profile, _ = oracle_certificate(r_list, 40)
        if m0 == 1 and any(x != a and y < b for x, y in r_list[0].term_map()):
            continue  # never concludes, before any analysis
        cert = independence_certificate(r_list, 40)
        follows = all(profile.value(l) == b - (l - a) ** m0 for l in range(a + 1, 41))
        assert (cert.tail_start, cert.delta == profile) == (a + 1, follows)
        outcomes["same" if follows else "differs"] += 1
    assert min(outcomes.values()) >= 40, outcomes
    _assert_the_check_fails()


def test_a_cancelling_tie_on_the_claimed_tail_is_seen(monkeypatch):
    """3 d_1 + 4 Y^2 d_2 over GF(7) ties at X^2 Y^-2 and cancels there.  Its
    tail starts at l = 3; a tail claimed from l = 2 reads the witness's -2
    at l = 2, where the element path has no term, and nowhere else differs."""
    r_list = tuple(poly(terms) for terms in CANCELLING["prime:7"])
    profile = oracle_certificate(r_list, 40)[3]
    assert independence_certificate(r_list, 40).delta == profile
    _claim_the_tail_from(monkeypatch, 2)
    entries = independence_certificate(r_list, 40).delta.entries
    assert [l for l in range(41) if entries[l] != profile.value(l)] == [2]
    assert (entries[2], profile.value(2)) == (-2, None)


def test_a_column_starting_inside_the_tail_is_compared_from_its_start(monkeypatch):
    """X^5 d_1 + (1 + X Y^2000) d_2 has its tail from l = 2, so the column
    of X^5 starts inside it.  With d_1 correct it stays above the witness
    -l^2 and the certificate is the element path's; formed with d_1 built
    as the cube, -(l - 5)^3 first undercuts the witness at l = 10 (Y^2000
    widens the automatic box enough to hold the cube), and from there the
    element path's profile differs from the certificate's."""
    import conftest

    box = TruncationBox((5, 2000))
    r_list = (Element.from_terms(S2, box, {(5, 0): 1}),
              Element.from_terms(S2, box, {(0, 0): 1, (1, 2000): 1}))
    cert = independence_certificate(r_list, 12)
    assert (cert.tail_start, cert.delta) == (2, oracle_certificate(r_list, 12)[3])
    monkeypatch.setattr(conftest, "make_d", lambda power, lmax, box=None, field=RATIONAL:
                        make_d(power + 2 * (power == 1), lmax, box, field))
    profile = oracle_certificate(r_list, 12)[3]
    assert [l for l in range(13) if cert.delta.value(l) != profile.value(l)] == [10, 11, 12]
    assert (cert.delta.value(10), profile.value(10)) == (-100, -125)


def test_the_tail_memos_keep_no_entry_past_their_bounds(monkeypatch):
    """The memo of the tails' closed form b - k^m0 holds at most 32 (m0,
    lmax, b) entries, the memo of whole profiles at most 128, each lmax + 1
    pointers long, and the analysis memo at most 512 keys of integers, the
    least recently used going first: at lmax 20,000 a repeated certificate
    computes nothing again, with m0 = 4 and with m0 = 5, and b = 0 or not,
    and a cold one calls ``pow`` only for its tail, as the prefix before it
    is read without a memo."""
    memo, profiles, analyses = independence._tails, independence._entries, independence._tail_start
    assert [m.cache_info().maxsize for m in (memo, profiles, analyses)] == [32, 128, 512]
    _clear_tail_memos()
    analyses.cache_clear()
    assert memo(2, 10, 3) == tuple(3 - l * l for l in range(11))
    r_list = (poly({(0, 1): 1, (1, 0): 2}), poly({(1, 1): 3}), poly({(0, 2): 1}),
              poly({(0, 0): 1, (1, 2): -1}))
    cert = independence_certificate(r_list, 20_000)
    held = [m.cache_info()[1:] for m in (memo, profiles, analyses)]  # misses, maxsize, currsize
    assert held == [(2, 32, 2), (1, 128, 1), (1, 512, 1)]
    assert independence_certificate(r_list, 20_000) == cert
    assert [m.cache_info()[1:] for m in (memo, profiles, analyses)] == held
    calls = []
    monkeypatch.setattr(independence, "pow", lambda *args: calls.append(args) or args[0] ** args[1],
                        raising=False)
    for top, b in (({(0, 0): 1}, 0), ({(0, 2): 1, (1, 0): 1}, 2)):
        five = r_list + (poly(top),)
        cert = independence_certificate(five, 20_000)
        assert (cert.m0, cert.b, cert.tail_start, len(calls)) == (5, b, 2, 20_001)
        calls.clear()
        held = [m.cache_info().misses for m in (memo, profiles, analyses)]
        for _ in range(3):
            assert independence_certificate(five, 20_000) == cert
        assert calls == [] and [m.cache_info().misses for m in (memo, profiles, analyses)] == held
    monkeypatch.undo()
    for b in range(32):
        memo(1, 3, b)
    assert memo.cache_info().currsize == 32
    assert memo(2, 10, 3) == tuple(3 - l * l for l in range(11))
    assert memo.cache_info()[1:] == (37, 32, 32)  # (2, 10, 3) had been dropped
    for size in range(200):
        prefix = (None,) * (size % 7 + 1) + (size,)
        a = size % 3
        entries = profiles(prefix, 2, 10, 3, a)
        assert entries == prefix + tuple(3 - (l - a) ** 2 for l in range(len(prefix), 11))
        assert profiles.cache_info().currsize == min(size + 4, 128)
    assert profiles((None, 0), 2, 10, 3, 0) == (None, 0, *(3 - l * l for l in range(2, 11)))
    assert profiles.cache_info()[1:] == (204, 128, 128)  # the first one was dropped
    for lmax in range(3, 1200):
        analyses(1, 0, 0, None, (), lmax)
        assert analyses.cache_info().currsize == min(lmax + 1, 512)
    assert analyses(*oracle_analysis_inputs(r_list), 20_000) == 2  # the first key, dropped too
    assert analyses.cache_info()[1:] == (1201, 512, 512)


def _certify_past_2_to_the_64():
    r_list = (poly({(0, 1): Fraction(1, 3)}), Element.zero(S2, RBOX, RATIONAL),
              Element.zero(S2, RBOX, RATIONAL), poly({(0, 0): Fraction(-2, 5)}))
    return r_list, independence_certificate(r_list, 65_600)


def test_certificate_past_2_to_the_64():
    """A constant r_4 next to a multiple of Y as r_1, at lmax 65,600: the
    Y-bound lmax^4 + 2 passes 2**64, and the profile stays exact there."""
    lmax = 65_600
    r_list, cert = _certify_past_2_to_the_64()
    assert cert.box.bounds[1] > 2 ** 64
    assert (cert.m0, cert.a, cert.b, cert.tail_start) == (4, 0, 0, 1)
    for lo, hi in ((0, 12), (lmax - 12, lmax)):
        # r_1 and r_4 have X-degree 0, so only d_j's own window reaches X^lo..X^hi
        window = _oracle_sum(r_list, range(lo, hi + 1), cert.box)
        assert cert.delta.entries[lo:hi + 1] == oracle_min_profile(window, lo, hi)
    assert cert.delta.entries[2:] == tuple(-(l ** 4) for l in range(2, lmax + 1))


def test_certificate_degenerate_inputs():
    zero = Element.zero(S2, RBOX, RATIONAL)
    with pytest.raises(DegenerateInputError):
        independence_certificate((), 10)
    with pytest.raises(DegenerateInputError):
        independence_certificate((zero, zero), 10)
    with pytest.raises(InexactElementError):
        independence_certificate((poly({(0, 0): 1})._replace(exact=False),), 10)
    with pytest.raises(ValueError):
        independence_certificate((make_d(1, 3),), 10)


def test_certificate_short_window_reports_requirement():
    one = poly({(0, 0): 1})
    with pytest.raises(InconclusiveWindowError) as info:
        independence_certificate((Element.zero(S2, RBOX, RATIONAL), one), 2)
    assert info.value.required_lmax == 3


def test_certificate_torsion_combination_never_concludes():
    """A combination that the module structure kills outright.

    The linear family member is annihilated by (Y - X), so no window can
    ever certify it and the error carries no window suggestion.  The
    truncated product collapses to zero as well, though only inexactly:
    the cancelling partner of the top term falls off the box edge.
    """
    r = poly({(0, 1): 1, (1, 0): -1})
    with pytest.raises(InconclusiveWindowError) as info:
        independence_certificate((r,), 15)
    assert info.value.required_lmax is None
    d1 = make_d(1, 15)
    killed = ring_act(r, d1)
    assert killed.is_zero
    assert not killed.exact


def test_a_family_reaching_below_the_automatic_box_fails_the_check(monkeypatch):
    """A make_d whose last term sits one step below the box it is handed
    puts that term into the element path's sum, where the certificate's
    closed form has none: the check must FAIL."""
    import cohdual.checks as checks

    def reaching(power, lmax, box=None):
        d = make_d(power, lmax, box)
        (x, _), c = d.terms[-1]
        return d._replace(terms=d.terms[:-1] + (((x, -d.box.bounds[1] - 1), c),))

    monkeypatch.setattr(checks, "make_d", reaching)
    _assert_the_check_fails()


def test_each_entry_is_checked_against_its_closed_form_once(monkeypatch):
    """Each memo entry is a closed form, computed with ``pow`` once: a cold
    certificate pays one pass over 0..lmax for its tail and none for the
    candidates before it, which are computed as they are read; a warm one
    pays nothing."""
    calls = []
    monkeypatch.setattr(independence, "pow", lambda *args: calls.append(args) or args[0] ** args[1],
                        raising=False)
    r_list = (poly({(0, 1): 1, (1, 0): 2}), poly({(1, 1): 3}), poly({(0, 2): 1}),
              poly({(0, 0): 1, (1, 2): -1}))
    _clear_tail_memos()
    cert = independence_certificate(r_list, 50)
    assert (cert.m0, cert.tail_start, len(calls)) == (4, 2, 51)
    assert calls == [(k, 4) for k in range(51)]
    calls.clear()
    assert independence_certificate(r_list, 50) == cert
    assert calls == []


def _break_the_family(monkeypatch):
    """Build the wrong power from j = 2 on, as the check line finds make_d."""
    import cohdual.checks as checks

    monkeypatch.setattr(checks, "make_d", lambda power, lmax, box=None:
                        make_d(power - 1 if power >= 2 else power, lmax, box))


def test_independence_check_fails_on_a_broken_family(monkeypatch):
    """A d-family with the wrong power from j = 2 on gives the combinations
    formed as elements other profiles than the certificates' closed form;
    the check line reports that as FAIL."""
    _break_the_family(monkeypatch)
    _assert_the_check_fails()


def _act_over_gf7_on_d_1(r, m):
    """``ring_act`` with its output a GF(7) zero when it acts on d_1, the d_j
    whose last term is X^l Y^-l, so the other products stay rational."""
    out = ring_act(r, m)
    (x, y), _ = m.terms[-1] if m.terms else ((0, 1), 1)
    return out._replace(field=PrimeField(7), terms=()) if y == -x and x > 1 else out


@pytest.mark.parametrize("broken", ["make_d", "ring_act"])
def test_independence_check_fails_on_a_kernel_over_another_field(monkeypatch, capsys, broken):
    """A d_j built over GF(7) for rational coefficients, or the product
    r_1 . d_1 over GF(7) next to rational ones, is compared with the
    certificate's frame before the next kernel meets it: the line FAILs
    rather than raising, and ``cohdual check`` exits 1 for a broken
    kernel, not 64 for bad input."""
    import cohdual.checks as checks
    from cohdual.cli import main

    monkeypatch.setattr(checks, broken, {
        "make_d": lambda power, lmax, box=None: make_d(power, lmax, box, PrimeField(7)),
        "ring_act": _act_over_gf7_on_d_1}[broken])
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)
    assert main(["check", "--suite", "independence"]) == 1
    capsys.readouterr()


def test_a_broken_family_fails_the_check_with_a_warm_cache(monkeypatch):
    """The memo filled by a passing run does not hide a broken make_d."""
    assert _independence_line()[0].passed
    for memo in (independence._tails, independence._tail_start, independence._entries):
        assert memo.cache_info().currsize > 0
    _break_the_family(monkeypatch)
    _assert_the_check_fails()


def _keyed_by(monkeypatch, name, key):
    """Replace the memo ``name`` by one that answers every call with the
    first answer it gave under the same ``key(*args)``: the memo keyed
    without the components ``key`` drops.  What raises is not kept."""
    real = getattr(independence, name).__wrapped__
    held = {}

    def keyed(*args):
        k = key(*args)
        if k not in held:
            held[k] = real(*args)
        return held[k]

    monkeypatch.setattr(independence, name, keyed)


def test_a_tail_memo_keyed_without_the_power_fails_the_check(monkeypatch):
    """A profile memo that hands every m0 the first profile joined at that
    (prefix, lmax, b, a) must make the independence check FAIL at every
    pinned seed."""
    _keyed_by(monkeypatch, "_entries", lambda prefix, m0, lmax, b, a: (prefix, lmax, b, a))
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)


def test_a_tail_cache_keyed_without_b_fails_the_check(monkeypatch):
    """A profile memo that hands every b the first profile joined at that
    (prefix, m0, lmax, a) must make the independence check FAIL at every
    pinned seed."""
    _keyed_by(monkeypatch, "_entries", lambda prefix, m0, lmax, b, a: (prefix, m0, lmax, a))
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)


def test_a_tail_memo_keyed_without_tail_start_fails_the_check(monkeypatch):
    """A profile memo keyed without its prefix, whose length is tail_start,
    hands every prefix the first profile joined at that (m0, lmax, b, a); it
    must make the independence check FAIL at every pinned seed."""
    _keyed_by(monkeypatch, "_entries", lambda prefix, m0, lmax, b, a: (m0, lmax, b, a))
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)


def test_a_profile_memo_keyed_without_lmax_fails_the_oracle(monkeypatch):
    """The check line certifies at one lmax, so it cannot see lmax in the
    key; certificates of one combination at lmax 8 and then 100 can: keyed
    without it, the second is handed the first's 9 entries."""
    r_list = (poly({(0, 1): 1, (1, 0): 2}), poly({(0, 3): 2, (1, 1): 1}))
    for lmax in (8, 100):
        _assert_certificate_matches_oracle(r_list, lmax)
    _keyed_by(monkeypatch, "_entries", lambda prefix, m0, lmax, b, a: (prefix, m0, b, a))
    _assert_certificate_matches_oracle(r_list, 8)
    with pytest.raises(AssertionError):
        _assert_certificate_matches_oracle(r_list, 100)


def test_a_profile_memo_keyed_without_a_fails_the_closed_form(monkeypatch):
    """A search of some 230,000 certified combinations found no two that
    share (prefix, m0, lmax, b) with different a, so no certificate is known
    to see a in the key; the memo's own answers do: each must be its prefix
    followed by b - (l - a)^m0 up to lmax, and keyed without a, the second
    a is handed the first one's tail."""
    def joined(a):
        return independence._entries((None, None, None, -4), 2, 12, 5, a)

    for a in (0, 1, 2):
        assert joined(a) == (None, None, None, -4, *(5 - (l - a) ** 2 for l in range(4, 13)))
    _keyed_by(monkeypatch, "_entries", lambda prefix, m0, lmax, b, a: (prefix, m0, lmax, b))
    assert joined(0) == (None, None, None, -4, *(5 - l * l for l in range(4, 13)))
    assert joined(1) != (None, None, None, -4, *(5 - (l - 1) ** 2 for l in range(4, 13)))


# the analysis memo's key, (m0, a, b, h_margin, lower, lmax), less one component
ANALYSIS_KEYS_WITHOUT = {
    "m0": lambda m0, a, b, h, lower, lmax: (a, b, h, lower, lmax),
    "a": lambda m0, a, b, h, lower, lmax: (m0, b, h, lower, lmax),
    "b": lambda m0, a, b, h, lower, lmax: (m0, a, h, lower, lmax),
    "h_margin": lambda m0, a, b, h, lower, lmax: (m0, a, b, lower, lmax),
    "lower": lambda m0, a, b, h, lower, lmax: (m0, a, b, h, lmax),
    "lmax": lambda m0, a, b, h, lower, lmax: (m0, a, b, h, lower),
}


@pytest.mark.parametrize("component", ["a", "b", "lower"])
def test_an_analysis_memo_keyed_without_it_fails_the_check(monkeypatch, component):
    """An analysis memo keyed without a, b or the lower margins hands some
    certificate another combination's tail_start: the independence check
    must FAIL at every pinned seed (a tail_start too close to lmax to refit
    is a failed trial, not a crash)."""
    _keyed_by(monkeypatch, "_tail_start", ANALYSIS_KEYS_WITHOUT[component])
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)


def test_a_tail_start_too_late_to_refit_fails_the_check(monkeypatch):
    """An analysis that starts every tail at lmax - 1 leaves the profile
    right, since the prefix read is exact, but only two tail points, too few
    to refit: each such certificate is a failed trial, not a crash."""
    monkeypatch.setattr(independence, "_tail_start", lambda *key: key[-1] - 1)
    for seed in PINNED_SEEDS:
        line, passed = _independence_line(seed)
        assert not line.passed and not passed
        assert line.detail.endswith("cross-checks failed on trials [0, 1, 2]")


@pytest.mark.parametrize("component", ["m0", "h_margin", "lmax"])
def test_an_analysis_memo_keyed_without_it_fails_the_oracle_sweep(monkeypatch, component):
    """The check line cannot see these components at every pinned seed (it
    certifies at one lmax, meets no two combinations that differ only in
    the h-part's margin, and only in m0 at seeds 5 and 701); the sweep of
    :func:`_analysis_mismatch` does."""
    _keyed_by(monkeypatch, "_tail_start", ANALYSIS_KEYS_WITHOUT[component])
    assert _analysis_mismatch() is not None


def test_a_warm_tail_is_a_slice_of_the_memo(monkeypatch):
    """A certificate with b != 0 at lmax 20,000 does no arithmetic on its
    tail: each tail entry is the memo's own int object, and a warm
    certificate calls ``pow`` nowhere."""
    r_list = (poly({(0, 1): 1, (1, 0): 2}), poly({(0, 3): 2, (1, 1): 1}))
    cert = independence_certificate(r_list, 20_000)
    assert (cert.m0, cert.a, cert.b) == (2, 0, 3)
    calls = []
    monkeypatch.setattr(independence, "pow", lambda *args: calls.append(args) or args[0] ** args[1],
                        raising=False)
    warm = independence_certificate(r_list, 20_000)
    assert warm == cert and calls == []
    memo = independence._tails(2, 20_000, 3)
    assert all(warm.delta.entries[l] is memo[l - warm.a]
               for l in range(warm.tail_start, 20_001))
    assert warm.delta.entries[-1] == 3 - 20_000 ** 2


@pytest.mark.parametrize("m0", [1, 2, 3, 4])
def test_every_top_index_and_shift_matches_the_oracle_cold_and_warm(m0):
    """For each b in 0..4 at lmax 1,000, the profile read with the memos
    emptied and the one read from them warm both equal the element path."""
    box = TruncationBox.uniform(2, 4)
    for b in range(5):
        top = Element.from_terms(S2, box, {(0, b): Fraction(2, 3), (1, b): 5})
        r_list = tuple(Element.from_terms(S2, box, {(0, 0): j + 1, (1, 2): Fraction(-1, j)})
                       for j in range(1, m0)) + (top,)
        profile = oracle_certificate(r_list, 1000)[3]
        _clear_tail_memos()
        for warmth in ("cold", "warm"):
            cert = independence_certificate(r_list, 1000)
            assert (cert.m0, cert.b, cert.delta) == (m0, b, profile), (b, warmth)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7)], ids=str)
def test_long_prefixes_match_the_element_path(field):
    """Before a tail from l = 1,108, over 104 columns: the profile read
    degree by degree is the element path's.  3 d_1 + 4 Y^2 d_2 tie at
    X^2 Y^-2, below every other column there; over GF(7) the two cancel and
    the candidates are re-summed, so that entry is not -2."""
    rng = random.Random("long prefix")
    lower = [{(0, 0): 3}, {(0, 2): 4}]
    for terms, least_y in zip(lower, (0, 2)):
        for x in rng.sample(range(1, 1100), 50):
            terms[(x, rng.randint(least_y, 40))] = rng.choice((1, 2, 3, 5))
    box = TruncationBox((1100, 40))
    r_list = tuple(Element.from_terms(S2, box, terms, field=field)
                   for terms in (*lower, {(1000, 0): 1, (1001, 3): 2}))
    m0, a, b, profile, _ = oracle_certificate(r_list, 1110)
    cert = independence_certificate(r_list, 1110)
    assert (cert.m0, cert.a, cert.b, cert.tail_start) == (m0, a, b, 1108) == (3, 1000, 0, 1108)
    live = tuple(enumerate(r_list, start=1))
    assert len({(j, e[0]) for j, r in live for e, _ in r.terms if e[0] < 1108}) == 104
    assert independence._least_exponents(live, a, b, 1108, 1110) == profile.entries
    assert cert.delta == profile
    assert (profile.value(2) == -2) == (field is RATIONAL)


def _analysis_cases():
    """(m0, a, b, h_margin, lower, r_list) over m0 1-4, a and b 0-5, an
    h-margin of None or 0..b+1 and, for each lower index, no coefficient or
    a margin of 0, b or b + 1."""
    box = TruncationBox((6, 7))
    for m0, a, b in product(range(1, 5), range(6), range(6)):
        for h_margin in (None, *range(b + 2)):
            top = {(a, b): 1} if h_margin is None else {(a, b): 1, (a + 1, h_margin): 1}
            for margins in product(sorted({-1, 0, b, b + 1}), repeat=m0 - 1):
                lower = tuple((j, m) for j, m in enumerate(margins, start=1) if m >= 0)
                r_list = tuple(Element.from_terms(S2, box, {(0, m): 1} if m >= 0 else {})
                               for m in margins) + (Element.from_terms(S2, box, top),)
                yield m0, a, b, h_margin, lower, r_list


def test_failing_intervals_are_the_degrees_the_oracle_finds_undominated():
    """Over :func:`_analysis_cases`, the intervals cover exactly the t in
    1..last at which :func:`conftest.oracle_dominance` fails (past last it
    never does).  m0 = 1 with the h-part below b is the caller's case and is
    left out."""
    cases = 0
    for m0, a, b, h_margin, lower, r_list in _analysis_cases():
        if m0 == 1 and h_margin is not None and b - h_margin >= 1:
            continue
        last = max(a + 1, 2 ** (m0 - 1) + b + 1)
        dominated, _ = oracle_dominance(r_list)
        got = {t for lo, hi in independence._failing_intervals(m0, a, b, h_margin, lower)
               for t in range(lo, hi + 1)}
        assert got == {t for t in range(1, last + 1) if not dominated(a + t)}, \
            (m0, a, b, h_margin, lower)
        cases += 1
    assert cases > 10_000


def _analyses():
    """(key, verdict, expected) for each case of :func:`_analysis_cases`,
    analysed at lmax = settled + 2, where the scan down from lmax names the
    tail, and then at one past that tail, where the window is too short and
    the scan up names the least window (None where no window helps): an
    inconclusive verdict is ``(required_lmax,)``."""
    for m0, a, b, h_margin, lower, r_list in _analysis_cases():
        _, settled = oracle_dominance(r_list)
        tail = oracle_tail_start(r_list, settled + 2)
        for lmax in (settled + 2, tail + 1):
            key = (m0, a, b, h_margin, lower, lmax)
            expected = tail if lmax - tail >= 2 else (oracle_required_lmax(r_list),)
            yield key, independence._tail_start(*key), expected


def _analysis_mismatch():
    """The first of :func:`_analyses` whose memoized verdict disagrees with
    the scan oracles, or None."""
    return next(((key, got, expected) for key, got, expected in _analyses()
                 if got != expected), None)


def test_the_analysis_memo_matches_the_scan_oracles():
    """Every case of the sweep, analysed with the memo emptied and then
    again with it holding what the first pass left, matches the oracles;
    the memo keeps an inconclusive verdict as it keeps a tail, so the 512
    keys analysed last, both kinds among them, are all hits again."""
    independence._tail_start.cache_clear()
    verdicts = []
    for key, got, expected in _analyses():
        assert got == expected, key
        verdicts.append((key, got))
    info = independence._tail_start.cache_info()
    assert info.currsize == 512
    recent = verdicts[-512:]
    assert {type(got) for _, got in recent} == {int, tuple}
    assert all(independence._tail_start(*key) == got for key, got in recent)
    assert independence._tail_start.cache_info().misses == info.misses
    assert _analysis_mismatch() is None


def test_a_prefix_computed_with_the_wrong_power_fails_the_check(monkeypatch):
    """Candidates before the tail computed with the top index's power m0 in
    place of their own j must make the independence check FAIL at every
    pinned seed."""
    real = independence._least_exponents
    monkeypatch.setattr(independence, "_least_exponents", lambda live, a, b, tail_start, lmax:
                        real([(live[-1][0], r) for _, r in live], a, b, tail_start, lmax))
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)


def test_a_misplaced_h_fails_the_check(monkeypatch):
    """A split of the top coefficient whose h sits one X-degree too far
    leaves the profile as it was, since the certificate reads only a, b and
    g's length off it; the check must still FAIL at every pinned seed."""
    real = independence._split

    def misplaced(r):
        dec = real(r)
        return dec._replace(h=dec.h._replace(
            terms=tuple(((x + 1, y), c) for (x, y), c in dec.h.terms)))

    monkeypatch.setattr(independence, "_split", misplaced)
    for seed in PINNED_SEEDS:
        _assert_the_check_fails(seed)


def _family_with_power(monkeypatch, asked, built):
    """Make the checks' d-family build power ``built`` where ``asked`` is asked for."""
    import cohdual.checks as checks

    def wrong_power(power, lmax, box=None):
        return make_d(built if power == asked else power, lmax, box)

    monkeypatch.setattr(checks, "make_d", wrong_power)


def test_profile_check_fails_on_a_wrong_power(monkeypatch):
    """A d-family built with power 5 where 4 was asked for must make the
    profile check FAIL."""
    from cohdual.checks import delta_formula

    _family_with_power(monkeypatch, asked=4, built=5)
    line = delta_formula()
    assert not line.passed
    assert line.detail == "power 4, degree 2: got -32"


def test_separation_check_fails_when_two_powers_coincide(monkeypatch):
    """Power 4's family built as power 3 is shift-equivalent to power 3, so
    the separation check must FAIL with a witness."""
    from cohdual.checks import separation_pairs

    _family_with_power(monkeypatch, asked=4, built=3)
    line = separation_pairs()
    assert not line.passed
    assert line.detail == "powers 3 and 4: witness"
