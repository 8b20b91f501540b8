"""Dense linear algebra over GF(p) on numpy int64 matrices.

Used to rank the scalar part of a presentation's relations, which by
graded Nakayama counts the module's minimal generators
(``PresentedModule.nu``); the tests also rank degreewise matrices of maps
with it.  Entries are canonical representatives in ``[0, p)``; products
fit int64 for any p below 2^31.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, list]:
    """Reduced row echelon form and pivot column indices."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    _, piv = rref(a, p)
    return len(piv)

