"""Multigraded cohomology of the standard localization complex.

For the ideal generated by the first i of n variables, the complex carries,
in homological position l, one localization of the power-series ring for
every size-l subset S of those variables.  Fixing a multidegree a cuts every
localization down to a vector space of dimension 0 or 1: the piece for S is
nonzero exactly when a_j >= 0 for every variable j outside S (variables
beyond position i are never inverted, so their coordinates must always be
nonnegative).  The alternating-sign face maps become explicit 0/±1 integer
matrices and cohomology is exact linear algebra.

Ranks are taken over Q by the one exact routine of :mod:`cohdual.linalg`;
for these inclusion complexes they do not depend on the coefficient field
(the tests pin mod 2 and mod 3), so the dimensions reported here are valid
over the rationals and over every prime field alike.

The expected answer, verified by :func:`verify_realization` over a finite
window of multidegrees, is concentrated in position i, with a dimension-one
piece exactly at the degrees whose first i coordinates are all <= -1 and
whose remaining coordinates are all >= 0.  A slice depends only on which
coordinates of its degree are negative, so the sweep computes and compares
once per sign class and lays each class's dimensions over its degrees.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .algebra import Element, ModuleShape, TruncationBox, _check_index, monomial, ring_act
from .linalg import integer_rank


class CechDegreePiece(NamedTuple):
    """One multidegree slice of the complex: dimensions and face matrices.

    ``boundaries[l]`` maps position l to position l + 1; rows are indexed by
    the alive size-(l+1) subsets, columns by the alive size-l subsets, both
    in lexicographic order.
    """

    n: int
    i: int
    degree: tuple[int, ...]
    dims: tuple[int, ...]
    boundaries: tuple[tuple[tuple[int, ...], ...], ...]

    def cohomology(self) -> tuple[int, ...]:
        ranks = [integer_rank(mat) for mat in self.boundaries]
        ranks = [0] + ranks + [0]  # ranks[l] enters position l, ranks[l + 1] leaves it
        return tuple(self.dims[l] - ranks[l] - ranks[l + 1] for l in range(self.i + 1))


def build_degree_piece(n: int, i: int, a: tuple[int, ...]) -> CechDegreePiece:
    _check_index(n, i)
    a = tuple(a)
    if len(a) != n:
        raise ValueError(f"degree {a} has wrong length for n={n}")
    # S is alive when it holds every negative head coordinate and no tail one is negative
    negative = {j for j in range(i) if a[j] < 0}
    tail_ok = all(a[j] >= 0 for j in range(i, n))
    alive = [list(filter(negative.issubset, combinations(range(i), l))) if tail_ok else []
             for l in range(i + 1)]
    boundaries = []
    for l in range(i):
        sources = alive[l]
        targets = alive[l + 1]
        index = {s: k for k, s in enumerate(targets)}
        matrix = [[0] * len(sources) for _ in targets]
        for c, subset in enumerate(sources):
            for t in set(range(i)).difference(subset):
                bigger = tuple(sorted(subset + (t,)))
                if bigger in index:
                    matrix[index[bigger]][c] = (-1) ** bigger.index(t)
        boundaries.append(tuple(tuple(row) for row in matrix))
    dims = tuple(len(level) for level in alive)
    return CechDegreePiece(n, i, a, dims, tuple(boundaries))


@lru_cache(maxsize=None)
def _dims_by_signs(n: int, i: int, negative: tuple[bool, ...]) -> tuple[int, ...]:
    """Dimensions of every slice whose coordinates are negative where ``negative``
    says: :func:`build_degree_piece` reads only these signs, so -1 and 0 stand
    for every degree of the class."""
    return build_degree_piece(n, i, tuple(-1 if neg else 0 for neg in negative)).cohomology()


def cech_dims_at_degree(n: int, i: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Cohomology dimensions (positions 0..i) of the slice at multidegree a."""
    _check_index(n, i)
    a = tuple(a)
    if len(a) != n:
        raise ValueError(f"degree {a} has wrong length for n={n}")
    return _dims_by_signs(n, i, tuple(x < 0 for x in a))


def realization_support(n: int, i: int, a: tuple[int, ...]) -> bool:
    """Predicted support: top cohomology is one-dimensional exactly here."""
    return all(a[j] <= -1 for j in range(i)) and all(a[j] >= 0 for j in range(i, n))


class CohomologyTable(NamedTuple):
    """Per-multidegree dimensions over a finite window, sorted by degree."""

    n: int
    i: int
    window: int
    entries: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def dims_at(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """A degree's index in ``product`` order is base-(2 window + 1); else a search."""
        a, w = tuple(a), self.window
        index = sum((x + w) * (2 * w + 1) ** k for k, x in enumerate(reversed(a)))
        if 0 <= index < len(self.entries) and self.entries[index][0] == a:
            return self.entries[index][1]
        if (dims := dict(self.entries).get(a)) is None:
            raise KeyError(f"degree {a} not in the table window")
        return dims


class RealizationReport(NamedTuple):
    table: CohomologyTable
    passed: bool
    nonzero_count: int
    mismatches: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def verify_realization(n: int, i: int, window: int) -> RealizationReport:
    """Sweep the window [-window, window]^n and compare against the prediction.

    Passes when every slice is zero away from position i and the position-i
    dimension is 1 exactly on the predicted support, 0 elsewhere.  The
    dimensions depend only on which coordinates are negative, so each of the
    2^n sign classes is looked up and compared once: a class with k negative
    coordinates holds window^k * (window + 1)^(n - k) degrees, and its
    dimensions are laid against them without a further lookup.
    """
    _check_index(n, i)
    if window < 1:
        raise ValueError("window must cover both signs; need window >= 1")
    classes = list(product((True, False), repeat=n))  # True: the coordinate is negative
    dims = {s: _dims_by_signs(n, i, s) for s in classes}
    failing = {s for s in classes
               if dims[s] != (0,) * i + (int(all(s[:i]) and not any(s[i:])),)}
    signs = (True,) * window + (False,) * (window + 1)
    entries = tuple(zip(product(range(-window, window + 1), repeat=n),
                        map(dims.__getitem__, product(signs, repeat=n))))
    nonzero = sum(window ** sum(s) * (window + 1) ** (n - sum(s))
                  for s in classes if dims[s][i] == 1)
    mismatches = tuple(entry for entry, s in zip(entries, product(signs, repeat=n))
                       if s in failing) if failing else ()
    table = CohomologyTable(n, i, window, entries)
    return RealizationReport(table, not mismatches, nonzero, mismatches)


def identify_basis(n: int, i: int, a: tuple[int, ...],
                   box: TruncationBox | None = None) -> Element:
    """The basis monomial of the rank-one slice at degree a, as an Element.

    The identification shifts the first i coordinates by one unit (the
    inverse-polynomial labels carry the socle at zero while the complex
    itself is graded one step lower) and keeps the remaining coordinates.
    """
    a = tuple(a)
    dims = cech_dims_at_degree(n, i, a)
    if dims[i] != 1:
        raise ValueError(f"degree {a} carries no top cohomology")
    labels = tuple(a[j] + 1 if j < i else a[j] for j in range(n))
    if box is None:
        box = TruncationBox(tuple(abs(v) for v in labels))
    shape = ModuleShape.cohomology_shape(n, i)
    return monomial(shape, box, labels)


def equivariance_mismatches(n: int, i: int, window: int) -> list[tuple]:
    """Check that variable action commutes with the basis identification.

    For every in-window degree a with a rank-one top slice and every
    variable j, multiplying the identified basis monomial by X_j must give
    the basis monomial of a + e_j when that slice is rank one, and zero when
    it is not (the contraction kill).  Returns the offending triples.
    """
    bad = []
    box = TruncationBox.uniform(n, window + 2)
    shape = ModuleShape.series_shape(n)
    for a in product(range(-window, window + 1), repeat=n):
        if cech_dims_at_degree(n, i, a)[i] != 1:
            continue
        base = identify_basis(n, i, a, box)
        for j in range(n):
            shifted = tuple(a[k] + (1 if k == j else 0) for k in range(n))
            expect_nonzero = cech_dims_at_degree(n, i, shifted)[i] == 1
            xj = monomial(shape, TruncationBox.uniform(n, 1),
                          tuple(1 if k == j else 0 for k in range(n)))
            acted = ring_act(xj, base)
            if expect_nonzero:
                if acted != identify_basis(n, i, shifted, box):
                    bad.append((a, j, "expected the shifted basis monomial"))
            elif not acted.is_zero:
                bad.append((a, j, "expected the kill rule to apply"))
    return bad
