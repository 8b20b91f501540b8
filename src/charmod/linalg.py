"""Sparse linear algebra over GF(p).

Used to rank the scalar part of a presentation's relations, which by
graded Nakayama counts the module's minimal generators
(``PresentedModule.nu``).  Those matrices are tiny and sparse, so rows are
``{column: entry}`` dicts and elimination touches only their nonzero
entries; columns are any mutually comparable keys.
"""

from __future__ import annotations

from typing import Iterable


def rank(rows: Iterable[dict], p: int) -> int:
    """Rank over GF(p) of the matrix with the given sparse rows.

    Each stored pivot row is monic in its smallest column, which no other
    stored row has as its pivot; reducing a new row by the pivot at its
    smallest column only touches larger columns, so the loop ends.
    """
    pivots: dict = {}
    for row in rows:
        row = {k: e % p for k, e in row.items() if e % p}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {k: e * inv % p for k, e in row.items()}
                break
            f = row[col]
            for k, e in piv.items():
                v = (row.get(k, 0) - f * e) % p
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    return len(pivots)
