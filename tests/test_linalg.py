"""The sparse GF(p) rank against sympy's dense one."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from charmod import linalg


@st.composite
def sparse_matrices(draw):
    """(rows, columns, p): sparse rows over ``columns`` columns, some zero,
    some repeated and some combinations of the rows before them."""
    p = draw(st.sampled_from([2, 3, 101, 32003]))
    ncols = draw(st.integers(0, 70))
    nrows = draw(st.integers(0, 70))
    entry = st.integers(-2 * p, 2 * p)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or not ncols:
            rows.append({})
        elif kind == "random" or not rows:
            cols = draw(st.lists(st.integers(0, ncols - 1), max_size=min(ncols, 6)))
            rows.append({c: draw(entry) for c in cols})
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            row = {}
            for _ in range(draw(st.integers(1, 3))):
                a, r = draw(entry), draw(st.sampled_from(rows))
                for c, e in r.items():
                    row[c] = row.get(c, 0) + a * e
            rows.append(row)
    return rows, ncols, p


def _sympy_rank(rows, ncols, p):
    K = GF(p)
    dense = [[K(row.get(c, 0)) for c in range(ncols)] for row in rows]
    return DomainMatrix(dense, (len(rows), ncols), K).rank()


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_rank_matches_sympy(matrix):
    rows, ncols, p = matrix
    assert linalg.rank([dict(r) for r in rows], p) == _sympy_rank(rows, ncols, p)


def test_rank_on_small_cases():
    assert linalg.rank([], 7) == 0
    assert linalg.rank([{}, {3: 7}], 7) == 0
    assert linalg.rank([{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 1}], 2) == 2
    # columns need only compare with each other
    assert linalg.rank([{(0, 1): 2}, {(0, 1): 1, (0, 0): 1}], 3) == 2
