"""The one exact rank routine against plain row reduction and sympy."""

import random

import pytest

from cohdual.linalg import integer_rank, sparse_column_rank
from conftest import oracle_rank, oracle_rank_mod


def columns_of(rows):
    """The sparse columns {row index: entry} of a matrix given as rows."""
    width = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(width)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def random_matrix(rng, entries=(-1, 0, 0, 1)):
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    return [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]


def test_empty_and_zero_inputs():
    assert sparse_column_rank([]) == 0
    assert sparse_column_rank([{}, {}, {3: 0}]) == 0
    assert integer_rank([]) == 0
    assert integer_rank([[], []]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0


def test_dependent_and_duplicate_columns():
    assert sparse_column_rank([{0: 1, 2: -1}, {0: 1, 2: -1}]) == 1
    assert sparse_column_rank([{0: 2, 1: 4}, {0: -3, 1: -6}]) == 1
    # the third column is the first minus the second
    assert sparse_column_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]) == 2
    assert sparse_column_rank([{5: 1}, {0: 1}, {5: 1}, {0: -1, 5: 1}]) == 2


def test_rank_is_over_the_rationals_not_mod_two():
    rows = [[1, 1], [1, -1]]
    assert integer_rank(rows) == sparse_column_rank(columns_of(rows)) == 2
    assert oracle_rank_mod(rows, 2) == 1  # so a mod-2 shortcut would undercount
    assert oracle_rank_mod(rows, 3) == 2


def test_entries_beyond_signs():
    # a pivot column 6*(1, 2) clears a later column 3*(1, 2) over Q
    assert sparse_column_rank([{0: 6, 1: 12}, {0: 3, 1: 6}, {0: 2, 1: 5}]) == 2


def test_row_rank_equals_column_rank():
    rng = random.Random(8)
    for _ in range(200):
        rows = random_matrix(rng, (-2, -1, 0, 0, 1, 3))
        assert integer_rank(rows) == sparse_column_rank(columns_of(transpose(rows)))
        assert integer_rank(rows) == sparse_column_rank(columns_of(rows))


def test_small_sign_matrices_match_fraction_elimination():
    rng = random.Random(1968)
    for _ in range(500):
        rows = random_matrix(rng)
        assert integer_rank(rows) == oracle_rank(rows), rows
        assert sparse_column_rank(columns_of(rows)) == oracle_rank(rows), rows


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 7).flatmap(lambda ncols: st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
        min_size=1, max_size=7)))
    def check(rows):
        expected = sympy.Matrix(rows).rank()
        assert sparse_column_rank(columns_of(rows)) == expected
        assert integer_rank(rows) == expected

    check()
