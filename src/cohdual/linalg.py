"""Exact rank by one routine: sparse, fraction-free integer column reduction.

Columns are cleared against the pivot columns by integer cross-multiplication,
never by division, and each new pivot column is divided by its content (gcd),
so entries stay small.  The rank is the rank over Q, which the 0/±1 matrices
built in this package keep over every prime field (see :mod:`cohdual.cech`).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd


def sparse_column_rank(columns: Sequence[dict[int, int]]) -> int:
    """Rank over Q of a matrix given as sparse integer columns {row index: int}."""
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        col = {r: v for r, v in column.items() if v}
        while col:
            r = min(col)
            pivot = pivots.get(r)
            if pivot is None:
                content = gcd(*col.values()) if col[r] > 0 else -gcd(*col.values())
                pivots[r] = {rr: v // content for rr, v in col.items()}
                break
            # col := a * col - b * pivot clears row r; a > 0 as pivot[r] > 0
            g = gcd(pivot[r], col[r])
            a, b = pivot[r] // g, col[r] // g
            if a != 1:
                col = {rr: a * v for rr, v in col.items()}
            for rr, v in pivot.items():
                upd = col.get(rr, 0) - b * v
                if upd:
                    col[rr] = upd
                else:
                    col.pop(rr, None)
    return len(pivots)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix given as rows: row rank equals column rank."""
    return sparse_column_rank([dict(enumerate(row)) for row in rows])
