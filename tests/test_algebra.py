"""Core algebra: shapes, boxes, elements, the ring action, derivations."""

import random
import re
from fractions import Fraction
from itertools import product
from math import inf
from operator import add, sub

import pytest

import cohdual.algebra as algebra
from cohdual.algebra import (
    INVERSE,
    SERIES,
    Element,
    ModuleShape,
    TruncationBox,
    derivation_act,
    linear_combine,
    monomial,
    quotient_by_series_var,
    ring_act,
)
from cohdual.checks import DEFAULT_SEED, leibniz_weyl_trials, run_suite
from cohdual.duality import matlis_pair
from cohdual.fields import RATIONAL, Fp, PrimeField
from cohdual.independence import decompose_r, make_d
from conftest import (
    COEFFICIENT_KINDS,
    FIELDS,
    coefficient_strings,
    int_coefficient,
    oracle_leibniz_weyl_trials,
    oracle_product,
    random_sample,
)

S2 = ModuleShape.series_shape(2)
D2 = ModuleShape((SERIES, INVERSE))
E2 = ModuleShape.inverse_shape(2)


def d_two(lmax, xb, yb):
    """Hand-built truncation of the quadratic family member."""
    return Element.from_terms(D2, TruncationBox((xb, yb)),
                              {(l, -l * l): 1 for l in range(lmax + 1)})


def test_shape_roles_and_dual():
    shape = ModuleShape.cohomology_shape(3, 2)
    assert shape.roles == (INVERSE, INVERSE, SERIES)
    assert shape.dual().roles == (SERIES, SERIES, INVERSE)
    assert shape.dual().dual() == shape
    assert shape.drop(0).roles == (INVERSE, SERIES)


def test_shape_validation():
    with pytest.raises(ValueError, match="^unknown role: 'sideways'$"):
        ModuleShape(("series", "sideways"))
    with pytest.raises(ValueError):
        ModuleShape.cohomology_shape(2, 0)
    with pytest.raises(ValueError):
        ModuleShape.cohomology_shape(2, 3)


def test_box_validation_and_admits():
    for bounds in ((-1, 2), (2, 2.0)):
        message = "^box bounds must be nonnegative integers: " + re.escape(str(bounds)) + "$"
        with pytest.raises(ValueError, match=message):
            TruncationBox(bounds)
    box = TruncationBox((2, 3))
    assert box.admits(D2, (2, -3))
    assert not box.admits(D2, (3, 0))
    assert not box.admits(D2, (0, 1))
    assert not box.admits(D2, (0, -4))
    assert (box + TruncationBox((1, 1))).bounds == (3, 4)
    with pytest.raises(ValueError):
        box + TruncationBox((1,))


def test_from_terms_accumulates_and_prunes():
    box = TruncationBox((3, 3))
    e = Element.from_terms(S2, box, {(1, 0): 2})
    f = Element.from_terms(S2, box, {(1, 0): -2})
    assert (e + f).is_zero
    g = Element.from_terms(S2, box, {(0, 0): 0, (2, 1): 3})
    assert g.term_map() == {(2, 1): 3}


def test_from_terms_validation():
    box = TruncationBox((3, 3))
    with pytest.raises(ValueError):
        Element.from_terms(S2, box, {(1,): 1})
    with pytest.raises(ValueError):
        Element.from_terms(S2, box, {(4, 0): 1})
    with pytest.raises(ValueError):
        Element.from_terms(S2, box, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Element.from_terms(D2, box, {(0, 1): 1})


def test_equality_ignores_exactness():
    """Two elements with equal terms compare equal even if only one is lossy."""
    box = TruncationBox((3, 3))
    e = Element.from_terms(D2, box, {(1, -1): 1})
    lossy = e._replace(exact=False)
    assert e == lossy
    assert hash(e) == hash(lossy)
    assert e != Element.from_terms(D2, TruncationBox((3, 4)), {(1, -1): 1})


def test_zero_scale_arithmetic():
    box = TruncationBox((3, 3))
    z = Element.zero(D2, box, RATIONAL)
    assert z.is_zero and z.exact
    e = monomial(D2, box, (1, -2), 3)
    assert e.scale(2).coefficient((1, -2)) == 6
    assert e.scale(0).is_zero
    assert (e - e).is_zero
    assert (-e).coefficient((1, -2)) == -3
    assert e.coefficient((0, 0)) == 0


def test_linear_combine_frame_checks():
    box = TruncationBox((3, 3))
    e = monomial(D2, box, (1, -1))
    with pytest.raises(ValueError):
        linear_combine([])
    with pytest.raises(ValueError):
        linear_combine([(1, e), (1, monomial(E2, box, (0, -1)))])
    with pytest.raises(ValueError):
        linear_combine([(1, e), (1, monomial(D2, TruncationBox((4, 3)), (1, -1)))])
    combined = linear_combine([(2, e), (1, e._replace(exact=False))])
    assert combined.coefficient((1, -1)) == 3
    assert not combined.exact


def test_ring_act_frozen_example():
    """Multiplying the quadratic family member by the inverse-side variable."""
    d = d_two(5, 5, 25)
    y = monomial(S2, TruncationBox((1, 1)), (0, 1))
    out = ring_act(y, d)
    assert out.term_map() == {(1, 0): 1, (2, -3): 1, (3, -8): 1,
                              (4, -15): 1, (5, -24): 1}
    assert out.exact


def test_ring_act_rejects_negative_poly_exponent():
    d = d_two(2, 2, 4)
    bad = monomial(D2, TruncationBox((1, 1)), (0, -1))
    with pytest.raises(ValueError):
        ring_act(bad, d)


def test_ring_act_kill_is_exact():
    """Climbing past the socle annihilates with no information loss."""
    box = TruncationBox((3, 3))
    e = monomial(E2, box, (0, -1))
    x0sq = monomial(S2, TruncationBox((2, 2)), (2, 0))
    out = ring_act(x0sq, e)
    assert out.is_zero
    assert out.exact


def test_ring_act_series_overflow_is_lossy():
    box = TruncationBox((3, 3))
    e = monomial(D2, box, (3, 0))
    x = monomial(S2, TruncationBox((1, 1)), (1, 0))
    out = ring_act(x, e)
    assert out.is_zero
    assert not out.exact


def test_ring_act_kill_beats_box_wall():
    """X*Y on the series variable: Y kills the product, whichever slot it takes.

    The series coordinate also passes its wall, but a contraction kill loses
    nothing, so the result is an exact zero in both variable orders.
    """
    xy = monomial(S2, TruncationBox((1, 1)), (1, 1))
    box = TruncationBox((1, 1))
    for roles, x in (((SERIES, INVERSE), (1, 0)), ((INVERSE, SERIES), (0, 1))):
        out = ring_act(xy, monomial(ModuleShape(roles), box, x))
        assert out.is_zero
        assert out.exact


def test_ring_act_vanishing_product_loses_nothing():
    """In a GF(7) frame an int 7 is 0, so it forms no product past the wall:
    no loss."""
    box, line, gf7 = TruncationBox((2,)), ModuleShape((SERIES,)), PrimeField(7)
    m = monomial(line, box, (2,), Fp(3, 7))
    seven = Element.from_terms(line, box, {(1,): 7}, field=gf7)
    assert seven.is_zero
    out = ring_act(seven, m)
    assert out.is_zero
    assert out.exact
    lossy = ring_act(Element.from_terms(line, box, {(1,): 8}, field=gf7), m)
    assert lossy.is_zero
    assert not lossy.exact


def test_ring_act_matches_oracle():
    """Random products over every coefficient kind, including lossy ones."""
    rng = random.Random(11)
    for field, kinds in COEFFICIENT_KINDS.items():
        for _ in range(150):
            n = rng.randint(1, 3)
            roles = tuple(rng.choice((SERIES, INVERSE)) for _ in range(n))
            shape = ModuleShape(roles)
            box = TruncationBox(tuple(rng.randint(1, 4) for _ in range(n)))
            m = random_sample(rng, shape, box, coefficient=rng.choice(kinds),
                              field=FIELDS[field])
            r = random_sample(rng, ModuleShape.series_shape(n),
                              TruncationBox.uniform(n, 3),
                              coefficient=rng.choice(kinds), field=FIELDS[field])
            out = ring_act(r, m)
            want_terms, want_exact = oracle_product(
                r.term_map(), m.term_map(), roles, box.bounds)
            assert out.term_map() == want_terms, field
            assert coefficient_strings(out.term_map()) == coefficient_strings(want_terms)
            assert out.exact == want_exact


def test_derivation_on_series_is_the_polynomial_rule():
    box = TruncationBox((4, 4))
    e = monomial(S2, box, (3, 1), 2)
    out = derivation_act(0, e)
    assert out.term_map() == {(2, 1): 6}
    assert derivation_act(0, monomial(S2, box, (0, 2))).is_zero


def test_derivation_on_inverse_frozen_values():
    """The inverse-side rule uses the label minus one as the falling factor."""
    box = TruncationBox((4, 9))
    y3 = monomial(D2, box, (0, -3))
    out = derivation_act(1, y3)
    assert out.term_map() == {(0, -4): -4}
    one = monomial(D2, box, (0, 0))
    assert derivation_act(1, one).term_map() == {(0, -1): -1}
    d = d_two(2, 2, 9)
    assert derivation_act(0, d).term_map() == {(0, -1): 1, (1, -4): 2}
    assert derivation_act(1, d).term_map() == {(0, -1): -1, (1, -2): -2,
                                               (2, -5): -5}


def test_derivation_at_box_edge():
    box = TruncationBox((2, 2))
    edge = monomial(D2, box, (0, -2))
    out = derivation_act(1, edge)
    assert out.is_zero
    assert not out.exact
    interior = monomial(D2, box, (2, 0))
    kept = derivation_act(0, interior)
    assert kept.term_map() == {(1, 0): 2}
    assert kept.exact


def test_derivation_leibniz_and_weyl_sampled():
    """Product rule and unit commutator on random shapes with headroom."""
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 3)
        shape = ModuleShape(tuple(rng.choice((SERIES, INVERSE))
                                  for _ in range(n)))
        box = TruncationBox.uniform(n, 6)
        m = random_sample(rng, shape, box, margin=4)
        r = random_sample(rng, ModuleShape.series_shape(n),
                          TruncationBox.uniform(n, 2))
        j = rng.randrange(n)
        assert derivation_act(j, ring_act(r, m)) == (
            ring_act(derivation_act(j, r), m)
            + ring_act(r, derivation_act(j, m)))
        xj = monomial(ModuleShape.series_shape(n), TruncationBox.uniform(n, 1),
                      tuple(1 if k == j else 0 for k in range(n)))
        assert derivation_act(j, ring_act(xj, m)) == (
            ring_act(xj, derivation_act(j, m)) + m)


def test_quotient_by_series_var():
    d = d_two(3, 3, 9)
    out = quotient_by_series_var(0, d)
    assert out.shape.roles == (INVERSE,)
    assert out.box.bounds == (9,)
    assert out.term_map() == {(0,): 1}
    assert out.exact
    with pytest.raises(ValueError):
        quotient_by_series_var(1, d)


def test_quotient_keeps_only_the_zero_layer():
    box = TruncationBox((2, 3))
    e = Element.from_terms(D2, box, {(0, -1): 2, (1, -1): 5, (0, -3): 1})
    out = quotient_by_series_var(0, e)
    assert out.term_map() == {(-1,): 2, (-3,): 1}


def test_mixed_fields_are_refused():
    """Operands over two fields are a usage error, not a TypeError mid-product."""
    box = TruncationBox((2, 2))
    for a, b in ((Fraction(1, 2), Fp(3, 7)), (Fp(3, 7), Fraction(1, 2)),
                 (Fp(2, 5), Fp(3, 7))):
        m = monomial(D2, box, (0, -1), b)
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            ring_act(monomial(S2, box, (1, 0), a), m)
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            matlis_pair(monomial(D2.dual(), box, (-1, 0), a), m)


def test_bare_int_first_terms_do_not_hide_a_field_mix():
    """A bare int leading both operands used to skip the type scan, so a
    Fraction meeting an Fp later ended in a TypeError mid-product."""
    r = Element.from_terms(S2, TruncationBox((2, 2)), {(0, 0): 1, (1, 0): Fraction(1, 2)})
    shape = ModuleShape((INVERSE, SERIES))
    m = Element.from_terms(shape, TruncationBox((2, 2)), {(0, 0): 1, (-1, 0): Fp(3, 7)})
    with pytest.raises(ValueError, match="mixed coefficient fields: prime:7 and rational"):
        ring_act(r, m)
    d = Element.from_terms(shape.dual(), TruncationBox((2, 2)),
                           {(0, 0): 1, (1, -1): Fraction(1, 2)})
    with pytest.raises(ValueError, match="mixed coefficient fields: prime:7 and rational"):
        matlis_pair(d, m)


def _walled_sample(rng, shape, box, count, draw, field):
    """``count`` random terms whose exponents favour 0, 1 and the box walls."""
    items = []
    for _ in range(count):
        exps = tuple((1 if role == SERIES else -1)
                     * rng.choice((0, min(1, b), max(b - 1, 0), b, rng.randint(0, b)))
                     for role, b in zip(shape.roles, box.bounds))
        items.append((exps, draw(rng)))
    return Element.from_terms(shape, box, items, field=field)


def _assert_kernel_matches_oracle(out, a, b, roles, bounds, size=None):
    if size is not None:  # size x size products
        assert len(a.terms) == len(b.terms) == size
    want_terms, want_exact = oracle_product(a.term_map(), b.term_map(), roles, bounds)
    assert out.term_map() == want_terms
    assert coefficient_strings(out.term_map()) == coefficient_strings(want_terms)
    assert [e for e, _ in out.terms] == sorted(want_terms)
    assert out.exact == want_exact


@pytest.mark.parametrize("base", [0, 2 ** 64], ids=["small-box", "box-past-2^64"])
def test_kernel_matches_oracle_on_both_sides_of_the_threshold(base):
    """ring_act and matlis_pair (into the default and into narrow boxes)
    agree with the oracle over Q and GF(7), ints that vanish mod 7
    included, on calls of fewer and of at least 64 products, in boxes
    small and past 2**64."""
    rng = random.Random(f"kernel/{base}")
    large = {"ring": set(), "pair": set()}
    for field, kinds in COEFFICIENT_KINDS.items():
        for _ in range(40):
            n = rng.randint(1, 3)
            shape = ModuleShape(tuple(rng.choice((SERIES, INVERSE)) for _ in range(n)))
            box = TruncationBox(tuple(base + rng.randint(1, 4) for _ in range(n)))
            big = rng.random() < 0.5
            count = (lambda: rng.randint(8, 16)) if big else (lambda: rng.randint(1, 4))
            m = _walled_sample(rng, shape, box, count(), rng.choice(kinds), FIELDS[field])
            r = _walled_sample(rng, ModuleShape.series_shape(n),
                               TruncationBox(tuple(base + rng.randint(0, 3) for _ in range(n))),
                               count(), rng.choice(kinds), FIELDS[field])
            _assert_kernel_matches_oracle(ring_act(r, m), r, m, shape.roles, box.bounds)
            large["ring"].add(len(r.terms) * len(m.terms) >= 64)

            d = _walled_sample(rng, shape.dual(), box, count(), rng.choice(kinds),
                               FIELDS[field])
            out_box = rng.choice((None, TruncationBox(
                tuple(rng.choice((0, b // 2, b, 2 * b)) for b in box.bounds))))
            out = matlis_pair(d, m, out_box)
            _assert_kernel_matches_oracle(out, d, m, (INVERSE,) * n, out.box.bounds)
            large["pair"].add(len(d.terms) * len(m.terms) >= 64)
    assert large == {"ring": {False, True}, "pair": {False, True}}


@pytest.mark.parametrize("base", [0, 2 ** 64], ids=["small-box", "box-past-2^64"])
@pytest.mark.parametrize("size", [2, 8], ids=["2x2", "8x8"])
def test_kernel_walls_kills_and_vanishing_products(base, size):
    """The kernel's rules, one case each, with size x size products.

    Y kills every product of r on m, and X also passes its wall on most of
    them: an exact zero.  Pairing into a box that holds only the upper half
    of m's X-exponents drops nonzero products below the wall, but a
    product with a positive coordinate is a kill even when the other one
    is below.  In a GF(7) frame
    an int 7 vanishes, so it forms no products past the wall to lose."""
    box = TruncationBox((base + size, base + 1))
    m = Element.from_terms(D2, box, {(base + size - x, 0): Fraction(1, x + 1)
                                     for x in range(size)})
    r = Element.from_terms(S2, box, {(x, 1): Fraction(x + 1, 3) for x in range(size)})
    killed = ring_act(r, m)
    assert killed.is_zero and killed.exact
    _assert_kernel_matches_oracle(killed, r, m, D2.roles, box.bounds, size)

    shape = ModuleShape((INVERSE, INVERSE))
    box = TruncationBox((base + size, base + size))
    m = Element.from_terms(shape, box, {(-x, -1): Fp(x % 6 + 1, 7) for x in range(size)})
    d = Element.from_terms(shape.dual(), box, {(0, y): Fp(y % 6 + 1, 7) for y in range(size)})
    narrow = TruncationBox((size // 2 - 1, base + size))
    out = matlis_pair(d, m, narrow)
    assert not out.exact
    _assert_kernel_matches_oracle(out, d, m, shape.roles, narrow.bounds, size)
    d_killing = Element.from_terms(shape.dual(), box, {(y, 2): Fp(1, 7) for y in range(size)})
    killed = matlis_pair(d_killing, m, narrow)
    assert killed.is_zero and killed.exact
    _assert_kernel_matches_oracle(killed, d_killing, m, shape.roles, narrow.bounds, size)

    box = TruncationBox((base + size, base + 1))
    walled = Element.from_terms(D2, box, {(base + size - x, -1): Fp(x % 6 + 1, 7)
                                          for x in range(size)})
    sevens = Element.from_terms(S2, box, {(0, 0): 1, **{(x + 1, 0): 7 * (x + 1)
                                                       for x in range(size - 1)}},
                                field=PrimeField(7))
    assert sevens.terms == (((0, 0), Fp(1, 7)),)
    out = ring_act(sevens, walled)
    assert out == walled and out.exact
    _assert_kernel_matches_oracle(out, sevens, walled, D2.roles, box.bounds)


def _series_rule_everywhere(j, m, field=True):
    """D_j with the series factor e[j] on an inverse direction too; without
    field, a zero output is over Q whatever m's field."""
    lowered = [(e[:j] + (e[j] - 1,) + e[j + 1:], e[j] * c) for e, c in m.terms]
    return Element.from_terms(
        m.shape, m.box, [t for t in lowered if m.box.admits(m.shape, t[0])], m.exact,
        m.field if field else None)


def test_leibniz_check_fails_on_a_wrong_inverse_rule(monkeypatch):
    """The series rule's factor e[j] on an inverse direction breaks the Weyl
    relation at the socle, and the acceptance check must notice.  Where the
    rule also gives a zero over Q for a GF(p) operand, the draws' linearity
    comparison FAILs the line on it, and the algebra suite, rather than
    raising as if the input were bad."""
    import cohdual.checks as checks

    monkeypatch.setattr(checks, "derivation_act", _series_rule_everywhere)
    line = leibniz_weyl_trials(DEFAULT_SEED)
    assert not line.passed
    assert "inverse" in line.detail
    assert line == oracle_leibniz_weyl_trials(DEFAULT_SEED)  # it fails in the draws

    monkeypatch.setattr(checks, "derivation_act",
                        lambda j, m: _series_rule_everywhere(j, m, field=False))
    for seed in (DEFAULT_SEED, 5, 701):
        line = leibniz_weyl_trials(seed)
        assert not line.passed
        assert re.fullmatch(r"roles \('series',\), derivation 0 not linear over prime:\d+",
                            line.detail)
    assert not _algebra_line().passed


def _zero_over_q_on_ring_elements(j, m):
    """D_j, except a zero over Q for a GF(p) ring element (series, box bound 2)."""
    if m.field != RATIONAL and INVERSE not in m.shape.roles and set(m.box.bounds) == {2}:
        return Element.from_terms(m.shape, m.box, [])
    return derivation_act(j, m)


def test_leibniz_check_fails_on_a_ring_derivation_over_another_field(monkeypatch, capsys):
    """The derivations of the draws' ring elements meet no linearity
    comparison, only sums and products; one over another field than its
    operand's breaks its variable, so the line FAILs rather than raising,
    and ``cohdual check`` exits 1 for a broken kernel, not 64 for bad input."""
    import cohdual.checks as checks
    from cohdual.cli import main

    monkeypatch.setattr(checks, "derivation_act", _zero_over_q_on_ring_elements)
    for seed in (DEFAULT_SEED, 5, 701):
        line = leibniz_weyl_trials(seed)
        assert not line.passed
        assert line.detail == "roles ('series',), variable 0 over prime:7"
    assert main(["check", "--suite", "algebra"]) == 1
    capsys.readouterr()


def _zero_over_q_for_variables(r, m):
    """r.m, except a zero over Q for a GF(p) ring element of box bound 1
    (the variables X_j of the Weyl law)."""
    if r.field != RATIONAL and set(r.box.bounds) == {1}:
        return Element.zero(m.shape, m.box, RATIONAL)
    return ring_act(r, m)


def test_leibniz_check_fails_on_a_ring_action_over_another_field(monkeypatch, capsys):
    """The Weyl law's ring actions on the variables meet no linearity
    comparison; one over another field than m's breaks its variable in
    m's frame, so the line FAILs rather than raising, and ``cohdual check``
    exits 1 for a broken kernel, not 64 for bad input."""
    import cohdual.checks as checks
    from cohdual.cli import main

    monkeypatch.setattr(checks, "ring_act", _zero_over_q_for_variables)
    for seed in (DEFAULT_SEED, 5, 701):
        line = leibniz_weyl_trials(seed)
        assert not line.passed
        assert line.detail == "roles ('series',), variable 0 over prime:7"
    assert main(["check", "--suite", "algebra"]) == 1
    capsys.readouterr()


def _algebra_line():
    (line,) = run_suite("algebra", DEFAULT_SEED).lines
    return line


def _field_of(*operands):
    types = {type(c) for terms in operands for _, c in terms}
    return "GF(p)" if Fp in types else "Q" if Fraction in types else "int"


def test_algebra_suite_reaches_every_kernel_path(monkeypatch):
    """The algebra line forms one-term products over bare ints, Q and GF(p),
    and k-by-k products (two or more terms on each side) over Q and GF(p).
    Its products of bare ints have a one-term operand, so bare ints are
    multiplied k by k in the duality suite's balance line."""
    import cohdual.duality as duality

    real = algebra._product
    seen = set()

    def counted(a_terms, b_terms, lo, hi, kill):
        if a_terms and b_terms:
            size = "one-term" if min(len(a_terms), len(b_terms)) == 1 else "k-by-k"
            seen.add((size, _field_of(a_terms, b_terms)))
        return real(a_terms, b_terms, lo, hi, kill)

    monkeypatch.setattr(algebra, "_product", counted)
    monkeypatch.setattr(duality, "_product", counted)
    assert _algebra_line().passed
    assert seen == {("one-term", "int"), ("one-term", "Q"), ("one-term", "GF(p)"),
                    ("k-by-k", "Q"), ("k-by-k", "GF(p)")}
    assert run_suite("duality", DEFAULT_SEED).passed
    assert ("k-by-k", "int") in seen


def _int_product_types():
    """Coefficient types of k-by-k products of all-int operands over Q, by
    ring_act and matlis_pair, with sums of several products among them."""
    box = TruncationBox((3, 3))
    r = Element.from_terms(S2, box, {(0, 0): 2, (1, 0): 3, (0, 1): -1})
    m = Element.from_terms(E2, box, {(0, 0): 1, (-1, 0): 4, (0, -1): 5, (-1, -2): -7})
    products = (ring_act(r, m), matlis_pair(r, m))
    assert [len(out.terms) for out in products] == [6, 6]
    return {type(c) for out in products for _, c in out.terms}


def test_int_k_by_k_products_keep_int_coefficients(monkeypatch):
    """Over Q an int times an int stays an int on the k-by-k path, as on the
    one-term path: the cheap arithmetic, and no Fraction(v, 1) in the terms.
    A kernel that makes every product a Fraction gives the same values, and
    only the type test sees it."""
    assert _int_product_types() == {int}
    as_fractions = _post(lambda terms: tuple((e, Fraction(c)) for e, c in terms))
    monkeypatch.setattr(algebra, "_shifted", as_fractions(algebra._shifted))
    assert _int_product_types() == {Fraction}


def _printed(terms):
    """Terms with their values and printed coefficients: within Q an int and
    the equal Fraction are one coefficient."""
    return [(e, c, str(c)) for e, c in terms]


# per field, its prime (None for Q) and a draw of one nonzero coefficient
_SHIFT_DRAWS = {
    "int": (None, lambda rng: rng.choice((1, -1, 2, -3, 7))),
    "Q": (None, lambda rng: rng.choice((rng.choice((1, -2, 3)), Fraction(
        rng.choice((1, -1, 3)), rng.randint(2, 5))))),
    "GF(7)": (7, lambda rng: Fp(rng.randint(1, 6), 7)),
    "GF(32003)": (32003, lambda rng: Fp(rng.randint(1, 32002), 32003)),
}


def _raw_terms(rng, count, n, reach, draw):
    """count canonical terms (distinct exponents, in order) of any signs."""
    exps = set()
    while len(exps) < count:
        exps.add(tuple(rng.randint(-reach, reach) for _ in range(n)))
    return tuple((e, draw(rng)) for e in sorted(exps))


def _placed(terms, shape, box, field):
    """The terms with each exponent folded into the shape's window of the box."""
    return Element.from_terms(shape, box, [
        (tuple((abs(x) % (b + 1)) * (1 if role == SERIES else -1)
               for x, role, b in zip(e, shape.roles, box.bounds)), c) for e, c in terms],
        field=field)


def _oracle(a_terms, b_terms, roles, bounds, walled):
    """:func:`oracle_product` of raw terms (exponents in -4..4) as sorted
    terms and a drop flag.  Without a lower wall, a's series exponents are
    lifted by 16 and every bound widened by 16, which puts the lower walls
    out of the products' reach, and the lift is taken off the result."""
    lift = tuple(16 if role == SERIES and not walled else 0 for role in roles)
    a_terms = {tuple(map(add, e, lift)): c for e, c in a_terms}
    bounds = bounds if walled else tuple(b + 16 for b in bounds)
    terms, exact = oracle_product(a_terms, dict(b_terms), roles, bounds)
    return sorted((tuple(map(sub, e, lift)), c) for e, c in terms.items()), not exact


@pytest.mark.parametrize("field", sorted(_SHIFT_DRAWS))
def test_shift_path_matches_the_merge_path(field):
    """One-term times k-term products (k = 0..6, on either side) and
    products of 2..5 terms on each side agree with the oracle in terms,
    printed coefficients and drop flag: with no lower wall (ring_act's
    box), inside a mixed box where kills and losses meet, and into a narrow
    pairing box; so do ring_act and matlis_pair."""
    rng = random.Random(f"shift/{field}")
    p, draw = _SHIFT_DRAWS[field]
    field = RATIONAL if p is None else PrimeField(p)
    dropped_seen = set()
    for _ in range(400):
        n = rng.randint(1, 3)
        roles = tuple(rng.choice((SERIES, INVERSE)) for _ in range(n))
        bounds = tuple(rng.randint(0, 3) for _ in range(n))
        k = rng.randint(0, 6)
        sizes = rng.choice(((1, k), (k, 1), (rng.randint(2, 5), rng.randint(2, 5))))
        operands = tuple(_raw_terms(rng, size, n, 4, draw) for size in sizes)
        lo, hi, kill = algebra._window(roles, bounds)
        narrow = TruncationBox(tuple(rng.randint(0, 1) for _ in range(n)))
        for window, oracle_frame in (((None, hi, kill), (roles, bounds, False)),
                                     ((lo, hi, kill), (roles, bounds, True)),
                                     (algebra._window((INVERSE,) * n, narrow.bounds),
                                      ((INVERSE,) * n, narrow.bounds, True))):
            got = algebra._product(*operands, *window)
            want = _oracle(*operands, *oracle_frame)
            assert (_printed(got[0]), got[1]) == (_printed(want[0]), want[1])
            dropped_seen.add(got[1])

        shape, box = ModuleShape(roles), TruncationBox(bounds)
        ring = ModuleShape.series_shape(n), TruncationBox.uniform(n, 4)
        for r_terms, m_terms in (operands, operands[::-1]):
            r, m = _placed(r_terms, *ring, field), _placed(m_terms, shape, box, field)
            _assert_kernel_matches_oracle(ring_act(r, m), r, m, roles, bounds)
            d = _placed(r_terms, shape.dual(), box, field)
            for out_box in (None, narrow):
                out = matlis_pair(d, m, out_box)
                _assert_kernel_matches_oracle(out, d, m, (INVERSE,) * n, out.box.bounds)
    assert dropped_seen == {False, True}


@pytest.mark.parametrize("one, other, error", [
    (Fraction(1, 2), (Fp(3, 7),), "mixed coefficient fields: prime:7 and rational"),
    (Fp(1, 7), (Fp(2, 5),), "mixed coefficient fields: prime:5 and prime:7"),
    (Fp(1, 7), (3, Fraction(1, 3)), "mixed coefficient fields: prime:7 and rational"),
    (2, (Fraction(1, 2), Fp(3, 7)), "mixed coefficient fields: prime:7 and rational"),
    (2, (Fp(1, 5), 4, Fp(3, 7)), "mixed coefficient fields: prime:5 and prime:7"),
    (True, (1,), "not an exact scalar: True"),
    (1.5, (2, 3), "not an exact scalar: 1.5"),
    (Fraction(1, 2), (2, 2.0), "not an exact scalar: 2.0"),
], ids=["Q-GF7", "GF7-GF5", "GF7-Q", "int-mixed", "int-two-primes", "bool", "float",
        "Q-float"])
def test_mixed_fields_raise_the_same_error_on_both_paths(one, other, error):
    """A one-term operand (or two terms of it) against terms of another
    field, or of no field, on whichever side it stands, is refused with one
    ValueError before either kernel path: by the frame check of ring_act
    and matlis_pair, or by from_terms when the terms share no field."""
    box = TruncationBox((3, 3))

    def series(coefficients):
        return Element.from_terms(S2, box, [((k, 0), c) for k, c in enumerate(coefficients)])

    def inverse(coefficients):
        return Element.from_terms(E2, box, [((0, -k), c) for k, c in enumerate(coefficients)])

    for left, right in (((one,), other), (other, (one,)), ((one, one), other)):
        for act in (ring_act, matlis_pair):
            with pytest.raises(ValueError) as refused:
                act(series(left), inverse(right))
            assert str(refused.value) == error


def _post(fault):
    """A shift path whose finished terms pass through ``fault``."""
    def faulty(real):
        def shifted(*args):
            terms, dropped = real(*args)
            return fault(terms), dropped
        return shifted
    return faulty


# each fault of the shift path, and the suite that must fail on it
_SHIFT_FAULTS = {
    "lower-wall-ignored": ("duality", lambda real: lambda one, terms, lo, hi, kill:
                           real(one, terms, None, hi, kill)),
    "on-the-wall-dropped": ("duality", lambda real: lambda one, terms, lo, hi, kill:
                            real(one, terms, lo and tuple(x + 1 for x in lo), hi, kill)),
    "rational-doubled": ("algebra", _post(lambda terms: tuple(
        (e, 2 * c if type(c) is Fraction else c) for e, c in terms))),
    "prime-squared": ("algebra", _post(lambda terms: tuple(
        (e, c * c if type(c) is Fp else c) for e, c in terms))),
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5, 701])
@pytest.mark.parametrize("fault", sorted(_SHIFT_FAULTS))
def test_suites_fail_on_a_faulty_shift_path(monkeypatch, seed, fault):
    """Each fault of the shift path alone FAILs its suite."""
    suite, wrap = _SHIFT_FAULTS[fault]
    monkeypatch.setattr(algebra, "_shifted", wrap(algebra._shifted))
    assert not run_suite(suite, seed).passed


def _dropped_last(real, *args):
    terms, dropped = real(*args)
    return terms[:-1], dropped


def _recoefficient(fault):
    """A k-by-k product whose finished terms pass ``fault`` over each coefficient."""
    def faulty(real, *args):
        terms, dropped = real(*args)
        return tuple((e, fault(c)) for e, c in terms), dropped
    return faulty


# each fault of products with two or more terms on each side, and the
# suites that must fail on it
_K_BY_K_FAULTS = {
    "lower-wall-ignored": (("duality",), lambda real, a, b, lo, hi, kill:
                           real(a, b, None, hi, kill)),
    "drop-flag-lost": (("duality",), lambda real, *args: (real(*args)[0], False)),
    "kill-read-as-loss": (("algebra", "duality"), lambda real, a, b, lo, hi, kill:
                          real(a, b, lo, hi, (inf,) * len(hi))),
    "last-term-skipped": (("algebra", "duality"), _dropped_last),
    "prime-squared": (("algebra",), _recoefficient(
        lambda c: c * c if type(c) is Fp else c)),
    "rational-halved": (("algebra",), _recoefficient(
        lambda c: c if type(c) is Fp else Fraction(c, 2))),
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5, 701])
@pytest.mark.parametrize("fault", sorted(_K_BY_K_FAULTS))
def test_suites_fail_on_a_faulty_k_by_k_product(monkeypatch, seed, fault):
    """Each fault confined to products with two or more terms on each side
    FAILs its suites."""
    import cohdual.duality as duality

    suites, faulty = _K_BY_K_FAULTS[fault]
    real = algebra._product

    def product(a_terms, b_terms, lo, hi, kill):
        if min(len(a_terms), len(b_terms)) < 2:
            return real(a_terms, b_terms, lo, hi, kill)
        return faulty(real, a_terms, b_terms, lo, hi, kill)

    monkeypatch.setattr(algebra, "_product", product)
    monkeypatch.setattr(duality, "_product", product)
    for suite in suites:
        assert not run_suite(suite, seed).passed, suite


@pytest.mark.parametrize("per_config", [0, 2])
def test_leibniz_check_sweeps_the_whole_monomial_region(per_config):
    """Every (roles, m, r, j) triple and (roles, m, j) pair of the region,
    plus the field draws: per_config per role assignment and field, and one
    full-support draw per field for n = 2 and n = 3."""
    sweep = sum(2 ** n * n * 3 ** n * (3 ** n + 1) for n in range(1, 4))
    draws = sum(2 ** n for n in range(1, 4)) * 3 * per_config + 2 * 3
    assert sweep == 18162 + 726
    line = leibniz_weyl_trials(DEFAULT_SEED, per_config)
    assert line.passed
    assert line.instances == sweep + draws


def _wrong_at_one_monomial(roles, bad):
    """A derivation whose D_2, under roles, counts the monomial bad twice."""
    def derivation(j, m):
        out = derivation_act(j, m)
        if j == 2 and m.shape.roles == roles and m.coefficient(bad):
            out = out + derivation_act(j, monomial(m.shape, m.box, bad, m.coefficient(bad)))
        return out
    return derivation


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5, 701])
def test_leibniz_check_fails_on_one_wrong_monomial(monkeypatch, seed):
    """A derivation wrong only at (-2, 2, -2) along variable 2, under roles
    (inverse, series, inverse), is inside the swept region: every seed
    must see it."""
    import cohdual.checks as checks

    roles, bad = (INVERSE, SERIES, INVERSE), (-2, 2, -2)
    monkeypatch.setattr(checks, "derivation_act", _wrong_at_one_monomial(roles, bad))
    line = leibniz_weyl_trials(seed)
    assert not line.passed
    assert f"roles {roles}, variable 2" in line.detail
    _assert_fails_as_its_oracle(line, oracle_leibniz_weyl_trials(seed), 3)


def _assert_fails_as_its_oracle(line, oracle, n):
    """Both lines FAIL with the same detail.  A failure in a region counts
    all of it, where the oracle stops at the failing monomial: the counts
    differ by a whole number of monomials' n * (1 + 3^n) instances, fewer
    than the 3^n of the region."""
    assert not line.passed and not oracle.passed
    assert line.detail == oracle.detail
    per_monomial = n * (1 + 3 ** n)
    assert line.instances - oracle.instances in range(0, 3 ** n * per_monomial, per_monomial)


def test_a_failing_region_counts_all_of_its_monomials(monkeypatch):
    """Wrong at the region's first monomial, the oracle stops early and the
    batched line counts the whole region."""
    import cohdual.checks as checks

    roles = (INVERSE, SERIES, INVERSE)
    monkeypatch.setattr(checks, "derivation_act", _wrong_at_one_monomial(roles, (0, 0, 0)))
    line, oracle = leibniz_weyl_trials(DEFAULT_SEED), oracle_leibniz_weyl_trials(DEFAULT_SEED)
    _assert_fails_as_its_oracle(line, oracle, 3)
    assert line.instances > oracle.instances


@pytest.mark.parametrize("seed, per_config", [(DEFAULT_SEED, 0), (DEFAULT_SEED, 2),
                                              (5, 2), (701, 2)])
def test_leibniz_check_matches_its_per_monomial_oracle(seed, per_config):
    """Deciding each role assignment's region on the sum of its monomials
    gives the verdict, instance count and detail of one call per monomial."""
    line = leibniz_weyl_trials(seed, per_config)
    assert line.passed
    assert line == oracle_leibniz_weyl_trials(seed, per_config)


def _doubled_on_lone_basis_vectors(j, m):
    """D_j doubled on each basis vector of the one-variable inverse line over
    GF(32003) taken by itself (one term, coefficient one): wrong there, right
    on every sum, so not linear."""
    out = derivation_act(j, m)
    if (m.shape.roles == (INVERSE,) and m.field == PrimeField(32003)
            and len(m.terms) == 1 and m.terms[0][1] == 1):
        out = out.scale(2)
    return out


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5, 701])
def test_leibniz_check_fails_on_a_derivation_that_is_not_linear(monkeypatch, seed):
    """The region is swept over Q and no seeded draw is such a lone basis
    vector, so only the draws' comparison of D_j(m) with the combination of
    D_j on m's monomials sees this fault."""
    import cohdual.checks as checks

    monkeypatch.setattr(checks, "derivation_act", _doubled_on_lone_basis_vectors)
    line = leibniz_weyl_trials(seed)
    assert not line.passed
    assert line.detail == "roles ('inverse',), derivation 0 not linear over prime:32003"


def _frame(rng):
    n = rng.randint(1, 3)
    return (ModuleShape(tuple(rng.choice((SERIES, INVERSE)) for _ in range(n))),
            TruncationBox(tuple(rng.randint(0, 4) for _ in range(n))))


def _sample(rng, draw):
    return random_sample(rng, *_frame(rng), coefficient=draw)


def _built_from_terms(rng, draw):
    shape, box = _frame(rng)
    # a few monomials drawn repeatedly, so equal exponents are summed and may cancel
    pool = [tuple(rng.randint(0, b) if role == SERIES else -rng.randint(0, b)
                  for role, b in zip(shape.roles, box.bounds)) for _ in range(3)]
    return Element.from_terms(
        shape, box, [(rng.choice(pool), draw(rng)) for _ in range(rng.randint(0, 8))])


def _built_linear_combine(rng, draw):
    a = _sample(rng, draw)
    b, c = (random_sample(rng, a.shape, a.box, coefficient=draw) for _ in range(2))
    return linear_combine([(1, a), (draw(rng), b), (-1, a), (rng.choice((0, 1)), c)])


def _built_ring_act(rng, draw):
    m = _sample(rng, draw)
    n = m.shape.nvars
    r = random_sample(rng, ModuleShape.series_shape(n), TruncationBox.uniform(n, 3),
                      coefficient=draw)
    return ring_act(r, m)


def _built_matlis_pair(rng, draw):
    m = _sample(rng, draw)
    d = random_sample(rng, m.shape.dual(), m.box, coefficient=draw)
    narrow = TruncationBox(tuple(rng.randint(0, 2 * b) for b in m.box.bounds))
    return matlis_pair(d, m, rng.choice((None, narrow)))


def _nonzero_polynomial(rng, draw):
    while True:
        r = random_sample(rng, S2, TruncationBox.uniform(2, 3), coefficient=draw)
        if not r.is_zero:
            return r


def _built_derivation_act(rng, draw):
    m = _sample(rng, draw)
    return derivation_act(rng.randrange(m.shape.nvars), m)


def _built_quotient(rng, draw):
    shape, box = _frame(rng)
    j = rng.randrange(shape.nvars)
    shape = ModuleShape(shape.roles[:j] + (SERIES,) + shape.roles[j + 1:])
    return quotient_by_series_var(j, random_sample(rng, shape, box, coefficient=draw))


def _built_make_d(rng, draw):
    power, lmax = rng.randint(1, 3), rng.randint(0, 6)
    box = TruncationBox((lmax + rng.randint(0, 2), lmax ** power + rng.randint(0, 3)))
    return make_d(power, lmax, box)


CONSTRUCTORS = {
    "from_terms": _built_from_terms,
    "linear_combine": _built_linear_combine,
    "scale": lambda rng, draw: _sample(rng, draw).scale(rng.choice((0, -1, draw(rng)))),
    "ring_act": _built_ring_act,
    "matlis_pair": _built_matlis_pair,
    "derivation_act": _built_derivation_act,
    "quotient_by_series_var": _built_quotient,
    "decompose_r.g": lambda rng, draw: decompose_r(_nonzero_polynomial(rng, draw)).g,
    "decompose_r.h": lambda rng, draw: decompose_r(_nonzero_polynomial(rng, draw)).h,
    "make_d": _built_make_d,
}

DRAWS = {
    "int": int_coefficient,
    "fraction": COEFFICIENT_KINDS["rational"][1],
    "gf7": COEFFICIENT_KINDS["prime:7"][0],
}


@pytest.mark.parametrize("name, kind", list(product(CONSTRUCTORS, DRAWS)))
def test_constructor_output_is_canonical(name, kind):
    """Strictly ascending exponents, no zero coefficient, every term in the box."""
    rng = random.Random(f"{name}/{kind}")
    for _ in range(80):
        e = CONSTRUCTORS[name](rng, DRAWS[kind])
        exponents = [x for x, _ in e.terms]
        assert all(x < y for x, y in zip(exponents, exponents[1:]))
        assert all(c for _, c in e.terms)
        assert all(len(x) == e.box.nvars and e.box.admits(e.shape, x) for x in exponents)
