"""Presented graded modules and (minimal) free resolutions.

A presented module is a cokernel ``F_0 / im(F_1 -> F_0)`` over the base
ring ``R = Q/I`` (``Q`` itself being ``Q/0``); the ideal relations are
implicit and all stored data is kept in normal form modulo ``I``.
Resolutions are built by iterated syzygy computation with incremental
minimalization: each new differential has its scalar pivots cancelled (a
Schur complement step whose only effect on the previous differential is a
column deletion) and its zero columns dropped before the next syzygy step,
so every prefix of the resolution is minimal and graded Betti numbers read
off the twists.

The cancellation is one pass over a mutable list of columns.  Each pivot
updates only the columns with an entry in its row, its row and column are
marked dead instead of deleted, and a heap of the scalar entries queued so
far yields the next pivot; both differentials are rebuilt once at the end.
"""

from __future__ import annotations

import heapq
from functools import wraps
from typing import List, Optional, Sequence

from . import linalg
from .freemod import (
    GradedFreeModule,
    GradedMatrix,
    Vector,
    term_pos,
)
from .kernel import POS_BITS, POS_MASK, scaled_merge
from .groebner import SubmoduleGB, buchberger, syzygy_generators
from .ring import PolyRing


class ResolutionLimitError(RuntimeError):
    """A resolution over the polynomial ring ran past its step limit."""


def cached(fn):
    """Memoize ``fn(obj)`` in ``obj.cache`` under ``fn.__name__``.  A result
    that is ``obj`` itself is stored as None, so no object holds itself and
    reference counting alone frees it."""
    key = fn.__name__

    @wraps(fn)
    def wrapper(obj):
        cache = obj.cache
        if key not in cache:
            out = fn(obj)
            cache[key] = None if out is obj else out
        out = cache[key]
        return obj if out is None else out
    return wrapper


class PresentedModule:
    """A graded module given by generators and relations.

    ``gens`` is the free module on the generators, ``rels`` a homogeneous
    matrix whose columns generate the relation submodule (never including
    the implicit ideal relations over a quotient base).
    """

    __slots__ = ("gens", "rels", "cache")

    def __init__(self, gens: GradedFreeModule, rels: Optional[GradedMatrix] = None):
        if rels is None:
            rels = GradedMatrix.zero(GradedFreeModule(gens.base, []), gens)
        if rels.target != gens:
            raise ValueError("relation matrix target does not match generators")
        self.gens = gens
        self.rels = rels
        self.cache: dict = {}

    # -- constructors ----------------------------------------------------
    @classmethod
    def free(cls, base, twists: Sequence[int]) -> "PresentedModule":
        return cls(GradedFreeModule(base, twists))

    @classmethod
    def ring_module(cls, base) -> "PresentedModule":
        """The base ring as a module over itself."""
        return cls.free(base, [0])

    @classmethod
    def residue_field(cls, base) -> "PresentedModule":
        """k = base / (variables), as a module over the base."""
        ring = base.cover
        gens = GradedFreeModule(base, [0])
        cols = [gens.vector_from_polys([base.nf(ring.var(i))]) for i in range(ring.n)]
        src = GradedFreeModule(base, [1] * ring.n)
        return cls(gens, GradedMatrix(src, gens, cols))

    # -- basic structure -------------------------------------------------
    @property
    def base(self):
        return self.gens.base

    @property
    def ring(self) -> PolyRing:
        return self.gens.ring

    def __eq__(self, other):
        return (
            isinstance(other, PresentedModule)
            and other.gens == self.gens
            and other.rels == self.rels
        )

    def __hash__(self):
        return hash((self.gens, self.rels))

    def __repr__(self):
        return (f"<PresentedModule {self.gens.rank} gens {self.rels.source.rank} rels "
                f"over {self.base!r}>")

    @cached
    def relation_gb(self) -> SubmoduleGB:
        return buchberger([list(c) for c in self.rels.cols], self.gens)

    def element_is_zero(self, v: Vector) -> bool:
        return self.relation_gb().contains(list(v))

    @cached
    def q_structure(self) -> "PresentedModule":
        """The same module regarded over the polynomial cover ring."""
        base = self.base
        ring = base.cover
        if ring is base:
            return self
        gens = GradedFreeModule(ring, self.gens.twists)
        # I times the free module: g * e_pos for each ideal element g
        aug = [[(k - pos, c) for k, c in g] for g in base.ideal_columns()
               for pos in range(gens.rank)]
        cols = [list(c) for c in self.rels.cols] + aug
        twists = list(self.rels.source.twists) + [gens.vector_degree(v) for v in aug]
        src = GradedFreeModule(ring, twists)
        return PresentedModule(gens, GradedMatrix(src, gens, cols))

    def twist(self, d: int) -> "PresentedModule":
        """The shifted module M(-d): all generator degrees raised by d."""
        gens = self.gens.shift(d)
        src = self.rels.source.shift(d)
        return PresentedModule(gens, GradedMatrix(src, gens, self.rels.cols))

    @cached
    def minimal(self) -> "PresentedModule":
        """Equivalent presentation with no scalar entries and no zero columns:
        the module itself when nothing cancels, so its cached bases are kept."""
        _, rels = _cancel_units(None, self.rels)
        if rels is self.rels:
            return self
        out = PresentedModule(rels.target, rels)
        out.cache["minimal"] = None  # ``cached``'s mark: its own minimal presentation
        return out

    def is_zero(self) -> bool:
        return self.nu() == 0

    def nu(self) -> int:
        """Minimal number of generators, by graded Nakayama: M/mM is
        F_0/mF_0 modulo the scalar part of the relations (their terms with
        no monomial part, which normal forms mod I never touch), so nu is
        rank F_0 minus the rank of that part over the field."""
        return self.gens.rank - scalar_rank(self.rels.cols, self.ring.field.p)


def scalar_rank(cols: Sequence[Vector], p: int) -> int:
    """Rank over GF(p) of the scalar part of the columns: their terms with
    no monomial part, the keys at most ``POS_MASK``."""
    return linalg.rank([{k: c for k, c in col if k <= POS_MASK} for col in cols], p)


def _cancel_units(prev: Optional[GradedMatrix], new: GradedMatrix):
    """Cancel every scalar entry of ``new`` and drop its zero columns;
    ``prev`` (the previous differential, if any) loses the columns matching
    the cancelled rows.

    The pivot is always the smallest live (row, col) scalar entry, which is
    the order a rebuild after every cancellation would give, since deleting
    rows and columns renumbers the rest in order.  ``holders`` maps each row
    to the columns that may have a term in it, so a pivot visits only those:
    a column gains terms only in its pivot's rows, and may lose any.  A
    pivot row's entry in its column is the scalar alone (columns are
    homogeneous), so the elimination clears that row from every column.
    """
    ring = new.source.ring
    p = ring.field.p
    ctx = ring.pack.ctx
    base = new.base
    cols = list(new.cols)
    # scalar terms are the keys with a zero monomial part, i.e. <= POS_MASK
    heap = [(term_pos(k), j) for j, col in enumerate(cols) for k, _ in col if k <= POS_MASK]
    if heap:  # most calls take no pivot and need no row index
        heapq.heapify(heap)
        holders: dict = {}
        for j, col in enumerate(cols):
            for k, _ in col:
                holders.setdefault(term_pos(k), set()).add(j)
    dead_rows, dead_cols = set(), set()
    while heap:
        r, c = heapq.heappop(heap)
        if r in dead_rows or c in dead_cols:
            continue
        rk = POS_MASK - r  # the key of the scalar term at row r
        u = next((cc for k, cc in cols[c] if k == rk), 0)
        if not u:  # the entry was cancelled after it was queued
            continue
        dead_rows.add(r)
        dead_cols.add(c)
        uinv = pow(u, p - 2, p)
        pivot = cols[c]
        pivot_rows = {term_pos(k) for k, _ in pivot} - {r}
        for j in holders.pop(r) - dead_cols:
            col = cols[j]
            entry = [(k >> POS_BITS, cc) for k, cc in col if (k & POS_MASK) == rk]
            if not entry:  # a stale holder: the row cancelled out of this column
                continue
            for okey, cc in entry:
                col = scaled_merge(col, pivot, (p - cc * uinv % p) % p,
                                   okey << POS_BITS, p, ctx)
            cols[j] = col = base.normal_form_vector(col)
            for row in pivot_rows:
                holders[row].add(j)
            for k, _ in col:
                if k <= POS_MASK:
                    heapq.heappush(heap, (term_pos(k), j))
    dead_cols.update(j for j, col in enumerate(cols)
                     if j not in dead_cols and all(term_pos(k) in dead_rows for k, _ in col))
    if not dead_cols:
        return prev, new
    if prev is not None and dead_rows:
        prev = prev.delete(cols=dead_rows)
    out = GradedMatrix(new.source, new.target, cols)
    return prev, out.delete(rows=dead_rows, cols=dead_cols)


class BettiTable:
    """Graded Betti numbers ``beta_{i,j}`` of a minimal resolution."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def from_resolution(cls, res: "FreeResolution") -> "BettiTable":
        entries: dict = {}
        for i, mod in enumerate(res.modules):
            for t in mod.twists:
                entries[(i, t)] = entries.get((i, t), 0) + 1
        return cls(entries)

    def rows(self) -> List[List[int]]:
        """Canonical [homological degree, twist, count] rows."""
        return [[i, j, self.entries[(i, j)]] for (i, j) in sorted(self.entries)]

    def restrict(self, max_i: int) -> "BettiTable":
        return BettiTable({(i, j): v for (i, j), v in self.entries.items() if i <= max_i})

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.entries == self.entries

    def __hash__(self):
        return hash(tuple(sorted(self.entries.items())))

    def __repr__(self):
        return f"BettiTable({self.entries})"


class FreeResolution:
    """A minimal free resolution ``F_0 <- F_1 <- ...``, as ``resolve``
    builds it: its free modules and differentials."""

    __slots__ = ("base", "modules", "diffs", "complete")

    def __init__(self, base, modules, diffs, complete: bool):
        self.base = base
        self.modules = tuple(modules)
        self.diffs = tuple(diffs)
        self.complete = complete

    @property
    def length(self) -> int:
        return len(self.diffs)

    def module(self, i: int) -> GradedFreeModule:
        if 0 <= i < len(self.modules):
            return self.modules[i]
        return GradedFreeModule(self.base, [])

    def diff(self, i: int) -> GradedMatrix:
        """The differential F_i -> F_{i-1}; zero matrix outside range."""
        if 1 <= i <= len(self.diffs):
            return self.diffs[i - 1]
        return GradedMatrix.zero(self.module(i), self.module(i - 1))

    def projective_dimension(self) -> int:
        if not self.complete:
            raise ValueError("resolution is truncated; projective dimension unknown")
        for i in range(len(self.modules) - 1, -1, -1):
            if self.modules[i].rank:
                return i
        return -1

    def betti(self) -> BettiTable:
        return BettiTable.from_resolution(self)

    def __repr__(self):
        ranks = " <- ".join(str(m.rank) for m in self.modules)
        tail = "" if self.complete else " (truncated)"
        return f"<FreeResolution {ranks}{tail}>"


def resolve(M: PresentedModule, max_steps: Optional[int] = None) -> FreeResolution:
    """Minimal free resolution of ``M`` over its base.

    Over the polynomial ring the resolution is finite and ``max_steps`` may
    be omitted.  Over a quotient ring resolutions are generally infinite, so
    a truncation depth is required; the result is flagged ``complete`` only
    when the syzygies actually vanished.
    """
    base = M.base
    over_quotient = not base.is_polynomial_ring()
    if over_quotient and max_steps is None:
        raise ValueError("resolution over a quotient ring needs max_steps")
    ring = M.ring
    limit = max_steps if max_steps is not None else ring.n + 1
    Mm = M.minimal()
    modules: List[GradedFreeModule] = [Mm.gens]
    diffs: List[GradedMatrix] = []
    if Mm.gens.rank == 0 or Mm.rels.source.rank == 0:
        return FreeResolution(base, modules, diffs, complete=True)
    cols = Mm.rels.cols
    complete = False
    while len(diffs) < limit:
        amb = modules[-1]
        twists = [amb.vector_degree(c) for c in cols]
        src = GradedFreeModule(base, twists)
        new = GradedMatrix(src, amb, cols)
        prev = diffs[-1] if diffs else None
        prev, new = _cancel_units(prev, new)
        if prev is not None:
            diffs[-1] = prev
            modules[-1] = prev.source
        if new.source.rank == 0:
            complete = True
            break
        diffs.append(new)
        modules.append(new.source)
        # syzygies live on the basis of new.source
        cols = syzygy_generators(new.cols, new.target, new.source).gb
        if not cols:
            complete = True
            break
    if not over_quotient and not complete:
        raise ResolutionLimitError("resolution over the polynomial ring did not terminate")
    return FreeResolution(base, modules, diffs, complete=complete)
