"""Degreewise covering-complex cohomology and its predicted support."""

from itertools import product

import pytest

import cohdual.cech as cech
from cohdual.algebra import Element, ring_act
from cohdual.cech import (
    CohomologyTable,
    build_degree_piece,
    cech_dims_at_degree,
    equivariance_mismatches,
    identify_basis,
    realization_support,
    verify_realization,
)
from cohdual.linalg import integer_rank
from conftest import oracle_rank, oracle_rank_mod, oracle_realization


def test_dims_frozen_values():
    assert cech_dims_at_degree(2, 1, (0, 0)) == (0, 0)
    assert cech_dims_at_degree(2, 1, (-1, 0)) == (0, 1)
    assert cech_dims_at_degree(2, 1, (-2, 3)) == (0, 1)
    assert cech_dims_at_degree(2, 1, (-1, -1)) == (0, 0)
    assert cech_dims_at_degree(3, 2, (-1, -1, 0)) == (0, 0, 1)
    assert cech_dims_at_degree(3, 2, (-1, 0, 0)) == (0, 0, 0)
    assert cech_dims_at_degree(1, 1, (-1,)) == (0, 1)
    assert cech_dims_at_degree(1, 1, (0,)) == (0, 0)


def test_memoized_dims_agree_with_direct_pieces():
    for a in product(range(-2, 3), repeat=2):
        piece = build_degree_piece(2, 1, a)
        assert piece.cohomology() == cech_dims_at_degree(2, 1, a)
    for a in product(range(-2, 2), repeat=3):
        piece = build_degree_piece(3, 2, a)
        assert piece.cohomology() == cech_dims_at_degree(3, 2, a)


def test_cohomology_matches_fraction_elimination():
    """Fraction-free ranks inside cohomology() against plain row reduction.

    Recomputes every dimension as dim - rank(incoming) - rank(outgoing)
    with an independent Fraction-based rank.
    """
    for n, i in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
        for a in product(range(-2, 3), repeat=n):
            piece = build_degree_piece(n, i, a)
            ranks = [oracle_rank(matrix) if matrix else 0
                     for matrix in piece.boundaries]
            dims = []
            for l in range(i + 1):
                below = ranks[l - 1] if l > 0 else 0
                above = ranks[l] if l < i else 0
                dims.append(piece.dims[l] - below - above)
            assert tuple(dims) == piece.cohomology()


def test_support_predicate():
    assert realization_support(2, 1, (-1, 0))
    assert realization_support(2, 1, (-5, 2))
    assert not realization_support(2, 1, (0, 0))
    assert not realization_support(2, 1, (-1, -1))
    assert realization_support(3, 2, (-1, -2, 4))
    assert not realization_support(3, 2, (-1, 0, 4))


def test_verify_realization_two_vars():
    report = verify_realization(2, 1, 3)
    assert report.passed
    assert not report.mismatches
    assert len(report.table.entries) == 49
    assert report.nonzero_count == 12


def test_verify_realization_one_var():
    report = verify_realization(1, 1, 2)
    assert report.passed
    assert report.nonzero_count == 2
    assert report.table.dims_at((-1,)) == (0, 1)


def test_verify_realization_window_validation():
    with pytest.raises(ValueError):
        verify_realization(2, 1, 0)


@pytest.mark.parametrize("n, i", [(3, 0), (3, 4), (-1, 1), (0, 0)])
def test_verify_realization_refuses_the_index_before_any_work(monkeypatch, n, i):
    """(n, i) is refused before the 2^n sign classes are built, so a negative
    n is named as such and not as ``product``'s repeat argument."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the sign classes were built")

    monkeypatch.setattr(cech, "product", unbuilt)
    with pytest.raises(ValueError, match=rf"^need 1 <= i <= n, got i={i}, n={n}$"):
        verify_realization(n, i, 1)


def test_table_lookup_misses():
    table = CohomologyTable(1, 1, 1, (((-1,), (0, 1)),))
    assert table.dims_at((-1,)) == (0, 1)
    with pytest.raises(KeyError):
        table.dims_at((5,))


def test_table_lookup_finds_every_degree_by_its_index():
    """Each degree of a swept table is found at its index, without a scan, in
    2 and in 6 variables; degrees outside the window (or of another arity)
    are not found."""
    class Unscanned(tuple):
        def __iter__(self):
            raise AssertionError("the entries were scanned")

    for n, i, window in ((2, 1, 3), (6, 4, 2)):
        table = verify_realization(n, i, window).table
        indexed = table._replace(entries=Unscanned(table.entries))
        for degree, dims in table.entries[::7]:
            assert indexed.dims_at(list(degree)) == dims
        for missing in ((window + 1,) * n, (-window - 1,) * n, (0,) * (n - 1), (0,) * (n + 1)):
            with pytest.raises(KeyError):
                table.dims_at(missing)


def test_table_lookup_scans_a_hand_built_table():
    """A partial or reordered entry list falls back to the scan."""
    entries = (((1,), (0, 0)), ((-1,), (0, 1)), ((0,), (0, 0)))
    table = CohomologyTable(1, 1, 1, entries)
    for degree, dims in entries:
        assert table.dims_at(degree) == dims
    with pytest.raises(KeyError):
        table.dims_at((2,))


def test_identify_basis_label_shift():
    """Slice labels shift the first block of coordinates by one unit."""
    e = identify_basis(2, 1, (-1, 0))
    assert e.shape.roles == ("inverse", "series")
    assert e.term_map() == {(0, 0): 1}
    e = identify_basis(2, 1, (-3, 2))
    assert e.term_map() == {(-2, 2): 1}
    e = identify_basis(3, 2, (-1, -2, 1))
    assert e.term_map() == {(0, -1, 1): 1}


def test_identify_basis_needs_rank_one_slice():
    with pytest.raises(ValueError):
        identify_basis(2, 1, (0, 0))


def test_shift_action_matches_slices():
    for n in (1, 2):
        for i in range(1, n + 1):
            assert equivariance_mismatches(n, i, 2) == []


@pytest.fixture
def cold_dims_cache():
    """Empty the dimension cache around a test, so that a fault patched in
    reaches every degree and no faulty dimension outlives the test."""
    import cohdual.cech as cech

    cech._dims_by_signs.cache_clear()
    yield
    cech._dims_by_signs.cache_clear()


def test_realization_check_fails_when_ranks_are_undercounted(monkeypatch, cold_dims_cache):
    """A rank routine that undercounts every rank above 1 must make the
    realization check FAIL."""
    import cohdual.cech as cech
    from cohdual.checks import realization_sweep

    real_rank = cech.integer_rank

    def undercounting(rows):
        rank = real_rank(rows)
        return rank - 1 if rank > 1 else rank

    monkeypatch.setattr(cech, "integer_rank", undercounting)
    line = realization_sweep()
    assert not line.passed
    assert line.detail.startswith("n=3 i=3: dims ")


def _kept_where_killed(r, m):
    """r.m, except m itself where the true product is zero."""
    product = ring_act(r, m)
    return m if product.is_zero else product


@pytest.mark.parametrize("fault, mismatch", [
    (lambda r, m: Element.zero(m.shape, m.box, m.field),
     "((-2,), 0, 'expected the shifted basis monomial')"),
    (_kept_where_killed, "((-1,), 0, 'expected the kill rule to apply')"),
], ids=["zero", "no-kill"])
def test_realization_check_fails_on_a_wrong_shift_action(monkeypatch, capsys, fault, mismatch):
    """A variable action that loses the shifted basis monomial, or keeps
    one the contraction kills, FAILs the line; ``cohdual check`` exits 1."""
    from cohdual.checks import realization_sweep
    from cohdual.cli import main

    monkeypatch.setattr(cech, "ring_act", fault)
    line = realization_sweep()
    assert (line.passed, line.detail) == (False, f"n=1 i=1: shift action mismatch {mismatch}")
    assert main(["check", "--suite", "cech"]) == 1
    capsys.readouterr()


def _sweep(n, i, window):
    report = verify_realization(n, i, window)
    return report.table.entries, report.nonzero_count, report.passed, report.mismatches


@pytest.mark.parametrize("n, i, window", [
    *((n, i, window) for n in range(1, 5) for i in range(1, n + 1) for window in range(1, 5)),
    (6, 4, 2), (7, 3, 1), (8, 8, 1)])
def test_sign_class_sweep_matches_the_per_degree_oracle(n, i, window):
    """Entries, nonzero count, verdict and mismatches of the sign-class
    sweep equal those of the degree-by-degree loop it replaced."""
    assert _sweep(n, i, window) == oracle_realization(n, i, window)


def test_dims_that_ignore_the_tail_sign_fail_the_cech_suite(monkeypatch):
    """A dimension cache that reads every tail as nonnegative puts top
    cohomology on degrees with a negative tail: the check must FAIL."""
    import cohdual.cech as cech
    from cohdual.checks import run_suite

    real = cech._dims_by_signs
    monkeypatch.setattr(cech, "_dims_by_signs",
                        lambda n, i, negative: real(n, i, negative[:i] + (False,) * (n - i)))
    report = run_suite("cech")
    assert not report.passed
    (line,) = report.lines
    assert not line.passed and line.detail.startswith("n=2 i=1: dims (0, 1) at degree (-4, -4)")


def test_one_wrong_class_gives_the_oracles_mismatches(monkeypatch):
    """One sign class with wrong dimensions: the sweep lists exactly the
    degrees of that class, in degree order, as the oracle does."""
    import cohdual.cech as cech

    real = cech._dims_by_signs

    def one_wrong(n, i, negative):
        dims = real(n, i, negative)
        return (1,) + dims[1:] if negative == (True, False, False) else dims

    monkeypatch.setattr(cech, "_dims_by_signs", one_wrong)
    entries, nonzero, passed, mismatches = _sweep(3, 2, 2)
    assert (entries, nonzero, passed, mismatches) == oracle_realization(3, 2, 2)
    assert not passed and len(mismatches) == 2 * 3 * 3
    assert all(a[0] < 0 <= a[1] and a[2] >= 0 and dims == (1, 0, 0)
               for a, dims in mismatches)


def test_every_sign_class_matches_the_closed_form(cold_dims_cache):
    """The alive subsets hold the negative head set N, so a slice is a full
    simplex on the other head variables, acyclic unless N is the whole head;
    a negative tail kills every subset.  So every dimension is zero except
    position i of the class whose first i signs are negative and the rest not.
    Every sign class for n <= 5, each built at full n."""
    import cohdual.cech as cech

    classes = 0
    for n in range(1, 6):
        for i in range(1, n + 1):
            for negative in product((True, False), repeat=n):
                top = all(negative[:i]) and not any(negative[i:])
                assert cech._dims_by_signs(n, i, negative) == (0,) * i + (int(top),)
                classes += 1
    assert classes == sum(n * 2 ** n for n in range(1, 6))
    assert cech._dims_by_signs.cache_info().misses == classes


def test_boundary_ranks_do_not_depend_on_the_field():
    """The module docstring's claim: every face map has the same rank mod 2
    and mod 3 as over Q, for n <= 4, every i and degrees in [-2, 2]^n."""
    checked = 0
    for n in range(1, 5):
        for i in range(1, n + 1):
            for a in product(range(-2, 3), repeat=n):
                for matrix in build_degree_piece(n, i, a).boundaries:
                    if not matrix:
                        continue
                    rank = integer_rank(matrix)
                    assert oracle_rank_mod(matrix, 2) == rank, (n, i, a)
                    assert oracle_rank_mod(matrix, 3) == rank, (n, i, a)
                    checked += 1
    assert checked == 4134
