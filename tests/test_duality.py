"""Socle pairing, torsion functor, and the regular-sequence check."""

import random
import re
from fractions import Fraction

import pytest

from cohdual.algebra import (
    Element,
    ModuleShape,
    TruncationBox,
    monomial,
    ring_act,
)
from cohdual.duality import (
    GAMMA_FULL,
    GAMMA_ZERO,
    gamma_of_shape,
    is_torsion,
    matlis_pair,
    pairing_perfection_check,
    regular_on_dual_check,
    socle_functional,
    tensor_surjectivity_witness,
)
from cohdual.algebra import INVERSE, SERIES
from cohdual.fields import RATIONAL, Fp, PrimeField
from conftest import (
    COEFFICIENT_KINDS,
    FIELDS,
    coefficient_strings,
    oracle_is_torsion,
    oracle_pairing_perfection,
    oracle_product,
    random_sample,
)

H21 = ModuleShape.cohomology_shape(2, 1)
BOX3 = TruncationBox.uniform(2, 3)


def test_dual_shape_flips_roles():
    assert H21.dual().roles == ("series", "inverse")
    assert H21.dual().dual() == H21


def test_pair_frozen_monomials():
    d = monomial(H21.dual(), BOX3, (2, -3))
    m = monomial(H21, BOX3, (-2, 3))
    out = matlis_pair(d, m)
    assert out.term_map() == {(0, 0): 1}
    assert out.shape.roles == ("inverse", "inverse")
    assert out.box.bounds == (6, 6)
    assert out.exact


def test_pair_kills_positive_sums_exactly():
    d = monomial(H21.dual(), BOX3, (1, 0))
    m = monomial(H21, BOX3, (0, 3))
    out = matlis_pair(d, m)
    assert out.is_zero
    assert out.exact


def test_pair_partial_survival():
    d = Element.from_terms(H21.dual(), BOX3, {(2, -3): 1, (1, 0): 1})
    m = monomial(H21, BOX3, (-2, 3))
    out = matlis_pair(d, m)
    assert out.term_map() == {(0, 0): 1}
    assert out.exact


def test_pair_shape_mismatch():
    with pytest.raises(ValueError):
        matlis_pair(monomial(H21, BOX3, (-1, 0)), monomial(H21, BOX3, (-1, 0)))


def test_pair_narrow_out_box_is_lossy():
    d = monomial(H21.dual(), BOX3, (0, -3))
    m = monomial(H21, BOX3, (-2, 0))
    out = matlis_pair(d, m, TruncationBox((1, 3)))
    assert out.is_zero
    assert not out.exact


def test_pair_vanishing_product_loses_nothing():
    """In a GF(7) frame an int 14 is 0, so it forms no product to cross the
    wall: no loss."""
    gf7 = PrimeField(7)
    d = Element.from_terms(H21.dual(), BOX3, {(0, -3): 14}, field=gf7)
    assert d.is_zero
    m = monomial(H21, BOX3, (-2, 0), Fp(5, 7))
    narrow = TruncationBox((1, 3))
    out = matlis_pair(d, m, narrow)
    assert out.is_zero
    assert out.exact
    lossy = matlis_pair(Element.from_terms(H21.dual(), BOX3, {(0, -3): 15}, field=gf7),
                        m, narrow)
    assert lossy.is_zero
    assert not lossy.exact


def test_pair_matches_oracle():
    """Random pairings over every coefficient kind, some into narrow boxes.

    The pairing is the product into the all-inverse shape, so the ring
    action oracle with every role inverse and the output box computes it.
    """
    rng = random.Random(13)
    for field, kinds in COEFFICIENT_KINDS.items():
        for _ in range(150):
            n = rng.randint(1, 3)
            shape = ModuleShape(tuple(rng.choice((SERIES, INVERSE))
                                      for _ in range(n)))
            box = TruncationBox(tuple(rng.randint(1, 4) for _ in range(n)))
            d = random_sample(rng, shape.dual(), box, coefficient=rng.choice(kinds),
                              field=FIELDS[field])
            m = random_sample(rng, shape, box, coefficient=rng.choice(kinds),
                              field=FIELDS[field])
            out_box = None
            if rng.random() < 0.5:
                out_box = TruncationBox(tuple(rng.randint(0, 2 * b)
                                              for b in box.bounds))
            out = matlis_pair(d, m, out_box)
            want_terms, want_exact = oracle_product(
                d.term_map(), m.term_map(), (INVERSE,) * n, out.box.bounds)
            assert out.term_map() == want_terms, field
            assert coefficient_strings(out.term_map()) == coefficient_strings(want_terms)
            assert out.exact == want_exact


def test_socle_functional_values():
    d = monomial(H21.dual(), BOX3, (2, -3))
    assert socle_functional(d, monomial(H21, BOX3, (-2, 3))) == 1
    assert socle_functional(d, monomial(H21, BOX3, (-1, 3))) == 0
    assert socle_functional(d, monomial(H21, BOX3, (-2, 3), 5)) == 5


def test_pairing_is_a_permutation_small():
    report = pairing_perfection_check(2, 1, 2)
    assert report.passed
    assert len(report.permutation) == 9
    assert report.pair_count == 81


def test_pairing_balance_sampled():
    """r can act on either slot or on the paired value, same answer."""
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        i = rng.randint(1, n)
        shape = ModuleShape.cohomology_shape(n, i)
        box = TruncationBox.uniform(n, 4)
        m = random_sample(rng, shape, box, margin=2)
        d = random_sample(rng, shape.dual(), box, margin=2)
        r = random_sample(rng, ModuleShape.series_shape(n),
                          TruncationBox.uniform(n, 2))
        left = matlis_pair(ring_act(r, d), m)
        assert left == matlis_pair(d, ring_act(r, m))
        assert left == ring_act(r, matlis_pair(d, m))


def _patch_pairing(monkeypatch, fault):
    """Route every matlis_pair the checks reach through ``fault``."""
    import cohdual.checks as checks
    import cohdual.duality as duality

    real = duality.matlis_pair
    for module in (checks, duality):
        monkeypatch.setattr(module, "matlis_pair",
                            lambda d, m, out_box=None: fault(real(d, m, out_box)))


_PERFECTION_CASES = [(n, i, bound) for n in range(1, 4) for i in range(1, n + 1)
                     for bound in range(4)]


@pytest.mark.parametrize("factor", [-1, 2], ids=["negated", "doubled"])
def test_perfection_check_fails_on_a_scaled_pairing(monkeypatch, factor):
    from cohdual.checks import perfection_and_surjectivity

    assert perfection_and_surjectivity().passed
    _patch_pairing(monkeypatch, lambda e: e.scale(factor))
    assert not pairing_perfection_check(2, 1, 2).passed
    assert not perfection_and_surjectivity().passed
    for n, i, bound in _PERFECTION_CASES:
        report = pairing_perfection_check(n, i, bound)
        assert (report.pair_count, report.permutation, report.passed) == \
            oracle_pairing_perfection(n, i, bound)


@pytest.mark.parametrize("n, i, bound", _PERFECTION_CASES)
def test_perfection_check_matches_its_per_pair_oracle(n, i, bound):
    """Pairing each dual monomial once with the sum of the box monomials
    gives the pair count, the permutation (in its order) and the verdict of
    one call per pair."""
    report = pairing_perfection_check(n, i, bound)
    assert report.passed
    assert (report.pair_count, report.permutation, report.passed) == \
        oracle_pairing_perfection(n, i, bound)


def _misplaced(e):
    """A two-variable pairing whose product at (-1, -1) lands on (-2, -1),
    its coefficient kept and the socle untouched."""
    c = e.coefficient((-1, -1))
    if e.shape.nvars != 2 or not c or not e.box.admits(e.shape, (-2, -1)):
        return e
    terms = [t for t in e.terms if t[0] != (-1, -1)] + [((-2, -1), c)]
    return Element.from_terms(e.shape, e.box, terms, e.exact, e.field)


def test_perfection_check_fails_on_a_misplaced_product(monkeypatch):
    """Reading only each pair's socle coefficient misses a product moved to
    the wrong exponent; comparing every product with the exponent sums does
    not.  The balance line and the surjectivity witnesses see it too."""
    from cohdual.checks import run_suite

    _patch_pairing(monkeypatch, _misplaced)
    assert oracle_pairing_perfection(2, 1, 2)[2]
    assert not pairing_perfection_check(2, 1, 2).passed
    for seed in (1729, 5, 701):
        report = run_suite("duality", seed)
        assert {line.name for line in report.lines if not line.passed} == {
            "pairing-balance", "pairing-perfection-and-surjectivity"}


def test_balance_check_fails_when_the_pairing_drops_its_last_term(monkeypatch):
    """Both slot-side products lose their last term alike, the value-side
    one loses a different term, so the three sides disagree."""
    from cohdual.checks import balance_trials

    assert balance_trials().passed
    _patch_pairing(monkeypatch, lambda e: e._replace(terms=e.terms[:-1]))
    assert not balance_trials().passed


def _negated_on_rational_scalars(d, m, out_box, real):
    """A pairing into the default box negated whenever an operand holds a
    Fraction: right on bare ints, wrong on the same values as Q scalars."""
    out = real(d, m, out_box)
    if out_box is None and any(type(c) is Fraction for _, c in d.terms + m.terms):
        out = out.scale(-1)
    return out


def _loss_claimed_on_sums(d, m, out_box, real):
    """A pairing into a given box that reports a loss whenever m has two or
    more terms, though nothing fell outside."""
    out = real(d, m, out_box)
    if out_box is not None and len(m.terms) > 1:
        out = out._replace(exact=False)
    return out


@pytest.mark.parametrize("seed", [1729, 5, 701])
@pytest.mark.parametrize("fault, reason", [
    (_negated_on_rational_scalars, ": pairing not linear in m"),
    (_loss_claimed_on_sums, ": pairing not linear in m (narrow box)"),
], ids=["default-box-values", "narrow-box-flag"])
def test_balance_check_fails_on_a_pairing_that_is_not_linear(monkeypatch, seed, fault,
                                                              reason):
    """The balance line's draws are bare ints and its narrow pairing may
    always report a loss, so only its comparison of matlis_pair(d, m), in
    the default box and in the narrow one, with the combination over m's
    monomials (each with the field's one, a Fraction over Q) sees these,
    and the line's detail names which one failed."""
    import cohdual.checks as checks
    import cohdual.duality as duality
    from cohdual.checks import run_suite

    real = duality.matlis_pair
    for module in (checks, duality):
        monkeypatch.setattr(module, "matlis_pair",
                            lambda d, m, out_box=None: fault(d, m, out_box, real))
    report = run_suite("duality", seed)
    (failed,) = [line for line in report.lines if not line.passed]
    assert failed.name == "pairing-balance"
    assert re.fullmatch(r"trial \d+: n=\d i=\d" + re.escape(reason), failed.detail)


def _patch_lower_wall(monkeypatch, wall):
    """Hand the product kernel ``wall(lo)`` for its lower wall in every pairing,
    one-term and k-by-k products alike."""
    import cohdual.duality as duality

    real = duality._product
    monkeypatch.setattr(duality, "_product", lambda a, b, lo, hi, kill:
                        real(a, b, wall(lo), hi, kill))


@pytest.mark.parametrize("seed", [1729, 5, 701])
@pytest.mark.parametrize("wall, failing", [
    # the lower-wall test always true: only a narrow box has products below it
    (lambda lo: None, {"pairing-balance"}),
    # terms on the wall dropped: the surjectivity witnesses sit on it too
    (lambda lo: None if lo is None else tuple(x + 1 for x in lo),
     {"pairing-balance", "pairing-perfection-and-surjectivity"}),
], ids=["ignored", "one-step-high"])
def test_duality_suite_fails_on_a_wrong_lower_wall(monkeypatch, seed, wall, failing):
    """The balance line also pairs into a narrow box, so a kernel that keeps
    the products below its lower wall, or drops those on it, must FAIL the
    duality suite."""
    from cohdual.checks import run_suite

    assert run_suite("duality", seed).passed
    _patch_lower_wall(monkeypatch, wall)
    report = run_suite("duality", seed)
    assert {line.name for line in report.lines if not line.passed} == failing


def test_balance_check_fails_when_a_narrow_pairing_claims_exactness(monkeypatch):
    """A pairing whose loss below the wall leaves ``exact`` set must FAIL."""
    import cohdual.duality as duality
    from cohdual.checks import balance_trials

    real = duality._product
    monkeypatch.setattr(duality, "_product", lambda *args: (real(*args)[0], False))
    line = balance_trials()
    assert not line.passed
    assert line.detail.startswith("trial ")


def test_balance_check_fails_on_a_pairing_over_another_field(monkeypatch, capsys):
    """A pairing that answers rational operands with a GF(7) zero is caught
    before the value-side product meets it: the line FAILs at its first
    trial rather than raising, and ``cohdual check`` exits 1, not 64."""
    import cohdual.checks as checks
    from cohdual.checks import balance_trials
    from cohdual.cli import main

    real = checks.matlis_pair

    def over_gf7(d, m, out_box=None):
        paired = real(d, m, out_box)
        return Element.zero(paired.shape, paired.box, PrimeField(7))

    monkeypatch.setattr(checks, "matlis_pair", over_gf7)
    for seed, detail in ((1729, "trial 0: n=3 i=1"), (5, "trial 0: n=3 i=2"),
                         (701, "trial 0: n=3 i=2")):
        assert balance_trials(seed) == ("pairing-balance", 1, False, detail)
    assert main(["check", "--suite", "duality"]) == 1
    capsys.readouterr()


def test_surjectivity_witness_frozen():
    m, d = tensor_surjectivity_witness((-2, -3), 2, 1)
    assert m.term_map() == {(-2, 0): 1}
    assert d.term_map() == {(0, -3): 1}
    paired = matlis_pair(d, m)
    assert paired.term_map() == {(-2, -3): 1}


def test_surjectivity_witness_validation():
    with pytest.raises(ValueError):
        tensor_surjectivity_witness((1, 0), 2, 1)
    with pytest.raises(ValueError):
        tensor_surjectivity_witness((-1,), 2, 1)


def test_is_torsion_inverse_monomial():
    e = monomial(ModuleShape.inverse_shape(2), BOX3, (-1, -2))
    assert is_torsion(e, (0,))
    assert is_torsion(e, (0, 1))
    assert is_torsion(Element.zero(ModuleShape.inverse_shape(2), BOX3, RATIONAL), (0,))


def test_is_torsion_series_direction_is_not():
    e = monomial(H21.dual(), BOX3, (0, 0))
    assert not is_torsion(e, (0,))
    assert is_torsion(e, (1,))


def test_is_torsion_needs_the_sum_of_the_bounds():
    """X^3*Y^3 takes X^-3*Y^-3 to the socle, so only the 7th power of (X, Y)
    kills it; a search stopping at the largest bound + 1 = 4 missed that."""
    e = monomial(ModuleShape.inverse_shape(2), BOX3, (-3, -3))
    assert is_torsion(e, (0, 1))
    assert oracle_is_torsion(e, (0, 1))


def test_is_torsion_matches_search():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 3)
        shape = ModuleShape(tuple(rng.choice((SERIES, INVERSE)) for _ in range(n)))
        box = TruncationBox(tuple(rng.randint(0, 3) for _ in range(n)))
        if rng.random() < 0.1:
            e = Element.zero(shape, box, RATIONAL)
        else:
            e = random_sample(rng, shape, box)
        gens = tuple(rng.sample(range(n), rng.randint(1, n)))
        assert is_torsion(e, gens) == oracle_is_torsion(e, gens), (shape, box, e, gens)


def test_is_torsion_validation():
    e = monomial(H21, BOX3, (0, 0))
    with pytest.raises(ValueError):
        is_torsion(e, ())
    with pytest.raises(ValueError):
        is_torsion(e, (2,))


def test_gamma_of_shape():
    assert gamma_of_shape(ModuleShape.inverse_shape(2), (0, 1)) == GAMMA_FULL
    assert gamma_of_shape(H21, (0,)) == GAMMA_FULL
    assert gamma_of_shape(H21, (1,)) == GAMMA_ZERO
    assert gamma_of_shape(H21, (0, 1)) == GAMMA_ZERO
    assert gamma_of_shape(H21, ()) == GAMMA_FULL


def test_regular_sequence_small():
    report = regular_on_dual_check(2, 1, 3)
    assert report.passed
    assert [s.kernel_dim for s in report.steps] == [0]
    assert [s.domain_dim for s in report.steps] == [12]
    assert report.final_roles == ("inverse",)
    assert report.final_dim == 4


def test_regular_sequence_all_positions():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            report = regular_on_dual_check(n, i, 3)
            assert report.passed, (n, i)
            assert all(s.kernel_dim == 0 for s in report.steps)
            assert all(role == "inverse" for role in report.final_roles)


def test_regular_sequence_validation():
    with pytest.raises(ValueError):
        regular_on_dual_check(2, 0, 3)


@pytest.mark.parametrize("bound", [0, -1])
def test_regular_sequence_refuses_an_empty_domain(bound):
    """Below bound 1 the action has no domain, so the check could not fail."""
    with pytest.raises(ValueError, match="bound >= 1"):
        regular_on_dual_check(3, 2, bound)


def test_regular_sequence_fails_without_the_action(monkeypatch):
    """With multiplication replaced by the identity the map stays injective,
    but its image no longer complements the dropped shape."""
    import cohdual.duality as duality
    from cohdual.checks import regularity_sweep

    monkeypatch.setattr(duality, "ring_act", lambda r, m: m)
    report = regular_on_dual_check(3, 2, 3)
    assert [s.kernel_dim for s in report.steps] == [0, 0]
    assert not report.passed
    assert not regularity_sweep().passed


def test_regular_sequence_fails_when_ranks_are_undercounted(monkeypatch):
    """A rank routine that undercounts every rank above 1 must make the
    regularity check FAIL."""
    import cohdual.linalg as linalg
    from cohdual.checks import regularity_sweep

    real_rank = linalg.sparse_column_rank

    def undercounting(columns):
        rank = real_rank(columns)
        return rank - 1 if rank > 1 else rank

    monkeypatch.setattr(linalg, "sparse_column_rank", undercounting)
    report = regular_on_dual_check(3, 2, 3)
    assert not report.passed
    assert report.steps[0].kernel_dim == 1
    assert not regularity_sweep().passed
