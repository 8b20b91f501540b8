"""Twisted graded free modules, their vectors, and homogeneous matrices.

A vector in ``F = base(-t_1) + ... + base(-t_r)`` is a descending term list
as described in ``kernel.common``; the degree of a term is the monomial
degree plus the twist of its position.  Matrices are stored column-wise as
vectors of the target, so a matrix is precisely a list of generator images.
A ``GradedMatrix`` stores the columns it is given, homogeneous and in
normal form modulo the ideal: the few sites that multiply or lift entries
reduce them, and ``cmr`` reduces and checks documents when read.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .kernel import POS_BITS, POS_MASK, scaled_merge
from .ring import Polynomial, PolyRing

Term = Tuple[int, int]
Vector = List[Term]


def term_key(okey: int, pos: int) -> int:
    return (okey << POS_BITS) | (POS_MASK - pos)


def term_pos(key: int) -> int:
    return POS_MASK - (key & POS_MASK)


def term_okey(key: int) -> int:
    return key >> POS_BITS


def check_rank(rank: int) -> None:
    """Raise unless positions 0 .. rank - 1 fit the position field."""
    if rank > POS_MASK:
        raise ValueError("free module rank exceeds position field")


class GradedFreeModule:
    """A free module with integer generator twists over a base ring.

    The base is a ``QuotientRing`` or a ``PolyRing`` (as ``Q/0``); twist
    ``t`` at position ``i`` means the generator ``e_i`` sits in degree ``t``.
    """

    __slots__ = ("base", "twists")

    def __init__(self, base, twists: Sequence[int]):
        self.base = base
        self.twists = tuple(map(int, twists))
        check_rank(len(self.twists))

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def ring(self) -> PolyRing:
        """The underlying polynomial ring (the cover of the base)."""
        return self.base.cover

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GradedFreeModule)
            and other.base == self.base
            and other.twists == self.twists
        )

    def __hash__(self):
        return hash((self.base, self.twists))

    def __repr__(self):
        return f"GradedFreeModule({self.base!r}, {list(self.twists)})"

    # -- vector helpers --------------------------------------------------
    def basis_vector(self, pos: int) -> Vector:
        return [(term_key(0, pos), 1)]

    def vector_from_polys(self, polys: Sequence[Polynomial]) -> Vector:
        if len(polys) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(polys)}")
        terms: Vector = []
        for pos, f in enumerate(polys):
            for okey, c in f.terms:
                terms.append((term_key(okey, pos), c))
        terms.sort(reverse=True)
        return terms

    def vector_degree(self, v: Vector):
        """Degree of a homogeneous vector, read off its lead term; None for
        zero.  Homogeneity is checked where vectors come in
        (``vector_is_homogeneous``), not here."""
        if not v:
            return None
        k = v[0][0]
        return self.ring.pack.deg(term_okey(k)) + self.twists[term_pos(k)]

    def vector_is_homogeneous(self, v: Vector) -> bool:
        """Whether all terms of ``v`` have one degree."""
        deg = self.ring.pack.deg
        return len({deg(term_okey(k)) + self.twists[term_pos(k)] for k, _ in v}) <= 1

    def shift(self, d: int) -> "GradedFreeModule":
        return GradedFreeModule(self.base, [t + d for t in self.twists])


def v_scale(v: Vector, c: int, p: int) -> Vector:
    c %= p
    if c == 0:
        return []
    if c == 1:
        return list(v)
    return [(k, cc * c % p) for k, cc in v]


class GradedMatrix:
    """Homogeneous matrix between graded free modules, stored by columns.

    Column ``j`` is the image of the ``j``-th source generator.  Every
    nonzero column is homogeneous of degree ``source.twists[j] + d`` for one
    degree ``d`` shared by the whole matrix, and in normal form modulo the
    defining ideal of the base.  ``d`` is 0 except for the matrices
    ``hom_realize`` gives for Hom elements of degree ``d``.  The columns
    are stored as given: a caller whose entries may leave normal form (a
    product or a lift from the cover) reduces them first.
    """

    __slots__ = ("source", "target", "cols")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, cols):
        if source.base != target.base:
            raise ValueError("source and target over different bases")
        self.source = source
        self.target = target
        self.cols = tuple(map(tuple, cols))
        if len(self.cols) != source.rank:
            raise ValueError(f"expected {source.rank} columns, got {len(self.cols)}")

    @classmethod
    def zero(cls, source: GradedFreeModule, target: GradedFreeModule) -> "GradedMatrix":
        return cls(source, target, [[] for _ in range(source.rank)])

    @property
    def base(self):
        return self.source.base

    def apply(self, v: Vector) -> Vector:
        """Image of a source vector: substitute columns for basis vectors."""
        ctx = self.source.ring.pack.ctx
        p = self.source.ring.field.p
        out: Vector = []
        for key, c in v:
            col = self.cols[term_pos(key)]
            if col:
                out = scaled_merge(out, col, c, (term_okey(key)) << POS_BITS, p, ctx)
        return out

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other, defined when other.target == self.source."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        nf = self.base.normal_form_vector
        cols = [nf(self.apply(list(c))) for c in other.cols]
        return GradedMatrix(other.source, self.target, cols)

    def transpose_dual(self) -> "GradedMatrix":
        """Matrix of Hom(-, base): transpose with negated twists.  The
        entries are moved as they are, so for a free F, ``Hom(F, M)`` is
        ``F* (x) M`` and ``Hom(d, M)`` is ``d.transpose_dual() (x) M``."""
        src = GradedFreeModule(self.base, [-t for t in self.target.twists])
        tgt = GradedFreeModule(self.base, [-t for t in self.source.twists])
        cols: List[Vector] = [[] for _ in range(self.target.rank)]
        for j, col in enumerate(self.cols):
            for k, c in col:
                cols[term_pos(k)].append((term_key(term_okey(k), j), c))
        return GradedMatrix(src, tgt, [sorted(c, reverse=True) for c in cols])

    def delete(self, rows=(), cols=()) -> "GradedMatrix":
        rows = set(rows)
        colset = set(cols)
        keep_rows = [i for i in range(self.target.rank) if i not in rows]
        remap = {old: new for new, old in enumerate(keep_rows)}
        new_target = GradedFreeModule(self.base, [self.target.twists[i] for i in keep_rows])
        new_cols = []
        new_twists = []
        for j, col in enumerate(self.cols):
            if j in colset:
                continue
            nc = []
            for k, c in col:
                pos = term_pos(k)
                if pos in rows:
                    continue
                nc.append((term_key(term_okey(k), remap[pos]), c))
            nc.sort(reverse=True)
            new_cols.append(nc)
            new_twists.append(self.source.twists[j])
        new_source = GradedFreeModule(self.base, new_twists)
        return GradedMatrix(new_source, new_target, new_cols)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.source == self.source
            and other.target == self.target
            and other.cols == self.cols
        )

    def __hash__(self):
        return hash((self.source, self.target, self.cols))

    def __repr__(self):
        r, c = self.target.rank, self.source.rank
        return f"<GradedMatrix {r}x{c} over {self.base!r}>"
