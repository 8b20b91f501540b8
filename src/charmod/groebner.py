"""Groebner bases for submodules of graded free modules over a graded
quotient ``R = Q/I`` of a polynomial ring, with ``Q`` itself as ``Q/0``.

The engine is Buchberger's algorithm on packed term lists with the chain
criterion, the product criterion in ambient rank one, and normal-strategy
pair selection (lowest S-degree first).  A pair of two single terms is
never formed: both are monic, so its S-polynomial is exactly 0, and it
counts as treated (Gebauer & Moeller, *J. Symb. Comput.* 6, 1988, count
such pairs without forming them).  Only elements whose leads share a
position form pairs, so the basis is kept in one bucket per lead position:
new pairs and the chain criterion look only at the bucket of their
position, which in an elimination ambient (one position per marked column)
is a small part of the basis.  Pairs carry packed lcm words and keys, no
exponent tuples: both criteria compare exponent words, and one multiplication
gives an lcm word's order key and degree.
Reduced bases are canonical, so every result is independent of input order.

Computations over ``R`` reduce modulo ``I`` inside the reducers, as in
Singular's ``qring`` (Greuel & Pfister, *A Singular Introduction to
Commutative Algebra*, 2002): a reducer holds the ideal's reduced basis once,
at position 0 (``ideal_columns()``), and reduces by it at every position,
and every basis is the reduced basis over ``R``.  Over ``Q`` (a
``PolyRing``) the ideal is empty.

There is one syzygy engine, elimination (``syzygy_generators``): syzygies,
kernels, colon ideals and intersections come from a single Groebner basis in
a block-elimination order, realized by flagging primary-block keys above all
marker-block keys, which keeps the single kernel usable for both blocks;
the ideal reduces in both.  It returns its syzygy basis as a
``SubmoduleGB``: the marker block of the reduced elimination basis is the
reduced basis of the syzygy module over ``R`` (the block order is term over
position, which a position shift keeps), so no caller reruns Buchberger.
Only that block is autoreduced; the flagged elements are dropped first.
Each elimination runs once per base ring: ``syzygy_generators`` memoizes
its bases by value in the base's ``cache``.

The engine (``_buchberger_terms``) takes the raw parts of a run: the
ambient twists, the marked vectors and their source twists, the unmarked
columns, the ideal's basis and a known block.  On the compiled kernel two
calls do the whole run, flags, markers, pair loop and autoreduction, and
hand back the finished basis as the tuples a ``SubmoduleGB`` stores; the
pure branch builds the same inputs in Python and is the reference for both
calls.

The engine takes a known block (``known``): the first inputs already form
a reduced Groebner basis over ``R``.  They enter the basis as given,
unreduced, and no pair of two of them, or of one of them and the ideal, is
formed: each such S-polynomial has a standard representation over the
block and the ideal (Buchberger's criterion), so the span, and with it the
canonical reduced basis, are unchanged.  The chain criterion counts a pair
of a known element and the ideal as treated, but never leans on a pair of
two known elements.  An
elimination whose unmarked module has a known reduced basis starts from it
instead of working that basis out again pair by pair:
``homology._homology(d, M)`` does so when M holds its relation basis,
since the basis of the copies' relations is then M's, moved copy by copy.

The engine takes an internal degree bound (``upto``), which only
``homology.iso_probe`` sets, through its Hom build: the input is
homogeneous and pairs are taken lowest S-degree first, so dropping the
inputs and pairs above the bound leaves exactly the part of the reduced
basis of degree at most the bound (a degree-truncated Groebner basis, as
Macaulay2's ``DegreeLimit``).  That part is an order-preserving sub-list
of the full basis, and the bound is part of the memo key.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from .freemod import (
    GradedFreeModule,
    Vector,
    term_key,
    term_okey,
    term_pos,
    v_scale,
)
from .kernel import (LEX, POS_BITS, compiled_engine, divides, epack, make_reducer,
                     scaled_merge)
from .ring import Polynomial, PolyRing


# ---------------------------------------------------------------------------
# core engine


def _buchberger_terms(ring: PolyRing, twists: Sequence[int], vecs: Sequence[Vector],
                      ideal: Sequence[Vector] = (), marked: Optional[Sequence[Vector]] = None,
                      sources: Sequence[int] = (), known: Sequence[Vector] = (),
                      product: bool = False, upto: Optional[int] = None) -> Tuple[tuple, ...]:
    """Reduced Groebner basis over R = Q/I, as a tuple of term tuples, from
    the raw parts of a run in the free module with ``twists`` (rank r).

    The inputs are the ``known`` block, the ``marked`` vectors and the
    columns ``vecs``, in that order; ``ideal`` is the reduced basis of I at
    position 0.  ``product`` enables the coprime-lead criterion and must
    only be set in ambient rank one, where discarded pairs are genuinely
    redundant.

    With ``marked`` a sequence the run is an elimination: every input is
    flagged into the primary block (its keys raised above all marker-block
    keys), ``marked[j]`` enters with the marker ``e_(r+j)`` appended, whose
    twist is the degree of ``marked[j]``'s lead (0 when it is zero), and
    the result is the marker block of the reduced basis, moved back to
    positions j.  That block is exactly what autoreducing everything would
    keep, since a lead at or above the flag sits at a primary position and
    no marker-block term is at one, so it never divides one; so only the
    elements with lead below the flag are autoreduced.

    The ``known`` inputs must form a reduced basis over R: they enter
    unreduced and no pair of two of them, or of one of them and I, is
    pushed, since its S-polynomial reduces to zero over them and I, so the
    result is the one without ``known``.

    With ``upto`` only the part of degree at most ``upto`` is computed:
    marked inputs whose ``sources`` twist is above it are dropped (their
    marker positions kept), so are inputs of higher degree, and no pair of
    higher S-degree is pushed.  The input is homogeneous, so an
    S-polynomial and its normal form have the pair's S-degree and a reducer
    of a vector is of no higher degree: the result is exactly the degree
    <= ``upto`` part of the reduced basis, an order-preserving sub-list of
    it (as Macaulay2's ``DegreeLimit``); a known block cut to degree <=
    ``upto`` is still a truncated basis.

    Where the kernel allows it (``kernel.compiled_engine``) two compiled
    calls do all of it: ``_fast.buchberger`` builds the inputs and runs the
    pair loop, and ``_fast.autoreduce`` finishes its basis.  Otherwise the
    inputs are built here, ``_buchberger_loop`` runs the pair loop and
    ``_autoreduce`` finishes; this branch is the reference, element for
    element for the loop and term for term for the result.
    """
    p = ring.field.p
    ctx = ring.pack.ctx
    r = len(twists)
    engine = compiled_engine(p, ctx)
    if engine is not None:
        loop, finish = engine
        G = loop(p, ctx.n, ctx.fb, twists, vecs, ideal, marked, sources, known, product, upto)
        return finish(p, ctx.n, ctx.fb, G, ideal, 0 if marked is None else r)
    flag = 0
    if marked is not None:
        flag = 1 << ring.pack.block_shift
        twists = list(twists) + [ring.pack.deg(term_okey(v[0][0])) + twists[term_pos(v[0][0])]
                                 if v else 0 for v in marked]
    combined = [[(k + flag, c) for k, c in v] for v in known]
    combined += [[(k + flag, c) for k, c in v] + [(term_key(0, r + j), 1)]
                 for j, v in enumerate(marked or ())
                 if upto is None or sources[j] <= upto]
    combined += [[(k + flag, c) for k, c in v] for v in vecs if v]
    G = _autoreduce(ring, _buchberger_loop(ring, twists, combined, ideal, product,
                                           flag or None, upto, len(known)), ideal)
    if not flag:
        return tuple(map(tuple, G))
    # marker position r + j back to j: a constant shift of the position field
    return tuple(tuple((k + r, c) for k, c in g) for g in G)


def _buchberger_loop(ring: PolyRing, twists: Sequence[int], vecs: Sequence[Vector],
                     ideal: Sequence[Vector], product: bool, below: Optional[int],
                     upto: Optional[int], known: int = 0) -> List[Vector]:
    """The pair loop of ``_buchberger_terms``, on the inputs it builds: the
    unreduced basis, in the order its elements were found, cut to the leads
    below ``below``.  The reference for ``_fast.buchberger``, which builds
    the same inputs itself, and the loop of the pure kernel, of
    lex rings and of rings whose keys pass a machine word.  Pairs are
    formed, and the chain criterion is checked, within the bucket of basis
    indices that share the pair's lead position (``by_pos``); each pair is
    pushed once and ``done`` records the pairs already treated.  A known
    input (index below ``known``) is added as given and pushes no pair; only
    known inputs come before it, so none of their pairs is ever pushed.

    ``ideal`` comes first in the basis (indices below nid) and, as in the
    reducer, stands at every position.  A new element pairs with the ideal
    elements whose leads are not coprime to its own (the product criterion
    is exact for the others); pairs inside the ideal, the coprime ones and
    a known element's count as treated for the chain criterion.  So does a
    pair of two single terms, an ideal element or one at the new
    element's position: both are monic, so its S-polynomial is exactly 0,
    and it is never pushed.

    A pair is ``(sugar, i, j, lcm word, lcm key)``, i < j: the word is the
    field-wise maximum of the leads' exponent words; times ``ones`` (a 1 in
    each field) it holds the lcm's degree in field ``n - 1`` and, for
    grevlex, its key below (a lex key is the word).  No field carries at
    twice the cap; when a pair that survives the criteria has its lcm past
    the cap, ``scaled_merge`` raises ``OverflowError`` on the first term of
    its S-polynomial, and a pair that is never pushed forms no key.
    """
    p = ring.field.p
    ctx = ring.pack.ctx
    mask = ctx.okey_mask
    guards = ctx.guards
    top = ctx.fb - 1  # the guard bit of a field
    ones = guards >> top
    deg_shift = (ctx.n - 1) * ctx.fb
    fmask = (1 << ctx.fb) - 1
    lex = ctx.kind == LEX
    red = make_reducer(p, ctx, (), ideal)
    nid = len(ideal)
    G: List[Vector] = list(ideal)
    lead_okey: List[int] = [term_okey(g[0][0]) for g in ideal]  # block flags dropped
    lead_ep: List[int] = [epack(okey, ctx) for okey in lead_okey]  # exponent words
    lead_pos: List[int] = [0] * nid
    by_pos: dict = {}  # lead position -> indices of G past the ideal with a lead there
    pairs: list = []
    done = set()

    def add_gen(v: Vector, pair: bool = True) -> None:
        k, c = v[0]
        if c != 1:
            v = v_scale(v, ring.field.inv(c), p)
        t = len(G)
        okey = term_okey(k)
        ep = epack(okey, ctx)
        pos = term_pos(k)
        twist = twists[pos]
        bucket = by_pos.setdefault(pos, [])
        if not pair:  # a known element's pairs with the ideal need nothing
            done.update((i, t) for i in range(nid))
        one = len(v) == 1
        for i in (*range(nid), *bucket) if pair else ():
            e = lead_ep[i]
            # guard bit set in each field where lead i's exponent is at least ep's
            g = ((e | guards) - ep) & guards
            low = g - (g >> top)
            w = (e & low) | (ep & ~low)
            # coprime to an ideal lead, or two monic terms at one position
            # (S-polynomial 0): nothing to do
            if one and len(G[i]) == 1 or i < nid and w == e + ep:
                done.add((i, t))
                continue
            sums = w * ones
            sugar = ((sums >> deg_shift) & fmask) + twist
            if upto is None or sugar <= upto:
                heapq.heappush(pairs, (sugar, i, t, w, w if lex else sums & mask))
        bucket.append(t)
        G.append(v)
        lead_okey.append(okey & mask)
        lead_ep.append(ep)
        lead_pos.append(pos)
        red.append(v)

    for t, v in enumerate(vecs):
        if not v:
            continue
        k = v[0][0]
        if upto is not None and ctx.deg(term_okey(k)) + twists[term_pos(k)] > upto:
            continue
        if t < known:  # a known element: in normal form, and its pairs reduce to 0
            add_gen(list(v), False)
            continue
        r = red.nf(v)
        if r:
            add_gen(r)

    while pairs:
        _, i, j, lcm_ep, lk = heapq.heappop(pairs)
        done.add((i, j))
        if product and i >= nid and lcm_ep == lead_ep[i] + lead_ep[j]:
            continue
        if any(t != i and t != j and divides(lead_ep[t], lcm_ep, guards)
               and (i < nid and t < nid or ((i, t) if i < t else (t, i)) in done)
               and ((j, t) if j < t else (t, j)) in done
               for t in (*by_pos[lead_pos[j]], *range(nid))):
            continue
        # i moves to the lcm at j's position and block: key - lead key
        sh_j = (lk - lead_okey[j]) << POS_BITS
        sh_i = G[j][0][0] + sh_j - G[i][0][0]
        s = scaled_merge([], G[i], 1, sh_i, p, ctx)
        s = scaled_merge(s, G[j], p - 1, sh_j, p, ctx)
        r = red.nf(s)
        if r:
            add_gen(r)

    return [g for g in G[nid:] if below is None or g[0][0] < below]


def _autoreduce(ring: PolyRing, G: Sequence[Vector], ideal: Sequence[Vector]) -> List[Vector]:
    """Reduced basis from a basis whose leads lie outside the ideal's:
    minimal leads, tails in normal form modulo the kept elements and the
    ideal."""
    ctx = ring.pack.ctx
    red = make_reducer(ring.field.p, ctx, (), ideal)
    keep: List[Vector] = []
    for g in sorted(G, key=lambda v: v[0][0]):
        if red.find_reducer(g[0][0]) < 0:
            keep.append(g)
            red.append(g)
    out = [[g[0]] + red.nf(list(g[1:])) for g in keep]
    out.sort(key=lambda v: v[0][0], reverse=True)
    return out


# ---------------------------------------------------------------------------
# submodule Groebner bases


class SubmoduleGB:
    """A submodule of a graded free module together with a Groebner basis.

    ``gb`` is the reduced basis over the ambient base ring R = Q/I, a tuple
    of term tuples stored as given; with I's basis at every position it is
    a Groebner basis over Q of the submodule plus I times the free module.
    One reducer, over ``gb`` modulo I, serves normal forms, lead probes and
    ``express_in_basis``.
    """

    __slots__ = ("ambient", "gb", "_reducer")

    def __init__(self, ambient: GradedFreeModule, gb: tuple):
        self.ambient = ambient
        self.gb = gb
        self._reducer = None

    @property
    def base(self):
        return self.ambient.base

    def __len__(self):
        return len(self.gb)

    def __eq__(self, other):
        """Equality of submodules: identical ambient and reduced basis."""
        return (
            isinstance(other, SubmoduleGB)
            and other.ambient == self.ambient
            and other.gb == self.gb
        )

    def __hash__(self):
        return hash((self.ambient, self.gb))

    def __repr__(self):
        return f"<SubmoduleGB rank {self.ambient.rank}, {len(self.gb)} basis elements>"

    def _red(self):
        if self._reducer is None:
            ring = self.ambient.ring
            self._reducer = make_reducer(ring.field.p, ring.pack.ctx, self.gb,
                                         self.base.ideal_columns())
        return self._reducer

    def normal_form(self, v: Vector) -> Vector:
        return self._red().nf(v)

    def contains(self, v: Vector) -> bool:
        return not self.normal_form(v)

    def lead_reducible(self, key: int) -> bool:
        """Whether a term key is divisible by some basis lead or ideal lead."""
        return self._red().find_reducer(key) >= 0


def express_in_basis(gb: SubmoduleGB, v: Vector) -> Optional[Vector]:
    """Coordinates of ``v`` in the free module on the basis elements of
    ``gb``, or None if ``v`` is not a member.  The coordinates are only well
    defined modulo the defining ideal, and the ideal's contribution is
    dropped."""
    v = gb.base.normal_form_vector(list(v))
    if not v:
        return []
    r, quots = gb._red().nf_q(v)
    if r:
        return None
    out: Vector = []
    for t, quot in enumerate(quots):
        for okey, c in quot:
            out.append((term_key(okey, t), c))
    out.sort(reverse=True)
    return out


def buchberger(gens, ambient: GradedFreeModule) -> SubmoduleGB:
    """Reduced Groebner basis of the submodule generated by ``gens``, vectors
    (term lists) of the ambient.  All generators must be homogeneous."""
    vecs = []
    for v in map(list, gens):
        if v and not ambient.vector_is_homogeneous(v):
            raise ValueError("inhomogeneous generator")
        vecs.append(v)
    base = ambient.base
    return SubmoduleGB(ambient, _buchberger_terms(base.cover, ambient.twists, vecs,
                                                  base.ideal_columns(),
                                                  product=(ambient.rank == 1)))


def syzygy_generators(vectors: Sequence[Vector], ambient: GradedFreeModule,
                      source: GradedFreeModule,
                      extra_unmarked: Sequence[Vector] = (),
                      upto: Optional[int] = None,
                      known: Sequence[Vector] = ()) -> SubmoduleGB:
    """The syzygy module of ``vectors`` over the ambient base, a submodule
    of ``source`` (the free module on the inputs, which sets the twists).

    Relations with the ``extra_unmarked`` columns and with the defining
    ideal of the base are allowed but not recorded: an elimination of
    ``_buchberger_terms`` marks the inputs, leaves those columns unmarked
    and reduces modulo the ideal in both blocks; the marker block it
    returns is the reduced syzygy basis over the base.

    ``known``, when given, is the reduced basis over the base of the
    unmarked module, the extra columns included, and takes their place as
    the engine's known block, so no pair inside it is formed.  The unmarked
    module, hence the result, is the one the columns would give.

    With ``upto`` only the syzygies of degree at most ``upto`` are found
    (see ``_buchberger_terms``).  The ``source`` twist, not the engine's
    degree, decides which inputs are dropped: a zero input's marker enters
    with twist 0, while the syzygy it gives has its source twist.

    Each elimination runs once per base ring: the bases are memoized by
    value in ``base.cache["syzygy_generators"]``, keyed by the twists, the
    vectors, the extra columns, ``upto``, without which a truncated basis
    would answer a full request, and the known block (the ideal follows
    from the base).  Equal unmarked modules given by different columns
    share a known block, and so its entry.  An entry holds only the
    immutable ``gb`` tuple; every call gets a fresh ``SubmoduleGB``, so no
    reducer is shared.  Callers pass matrices' own column tuples, which the
    key then shares.
    """
    base = ambient.base
    vectors = tuple(map(tuple, vectors))
    extra_unmarked = tuple(map(tuple, extra_unmarked))
    known = tuple(map(tuple, known))
    key = (ambient.twists, source.twists, vectors, extra_unmarked, upto, known)
    memo = base.cache.setdefault("syzygy_generators", {})
    gb = memo.get(key)
    if gb is None:
        gb = memo[key] = _buchberger_terms(base.cover, ambient.twists,
                                           () if known else extra_unmarked,
                                           base.ideal_columns(), vectors, source.twists,
                                           known, upto=upto)
    return SubmoduleGB(source, gb)


def quotient(sub: SubmoduleGB, e) -> "Ideal":
    """Colon ideal ``{a in base : a * e in sub}`` for a vector ``e``."""
    ambient = sub.ambient
    if isinstance(e, (list, tuple)) and e and not isinstance(e[0], tuple):
        e = ambient.vector_from_polys(list(e))
    base = ambient.base
    ring = base.cover
    e = base.normal_form_vector(list(e))
    if not e:
        return Ideal(base, [ring.one()])
    source = GradedFreeModule(base, [ambient.vector_degree(e)])
    syz = syzygy_generators([e], ambient, source, extra_unmarked=sub.gb).gb
    return Ideal(base, [Polynomial(ring, [(term_okey(k), c) for k, c in s]) for s in syz])


def intersect_ideals(a: "Ideal", b: "Ideal") -> "Ideal":
    """Intersection of two ideals over the same base, by syzygies."""
    if a.base != b.base:
        raise ValueError("ideals over different bases")
    base = a.base
    ring = base.cover
    ambient = GradedFreeModule(base, [0])
    ga = [f for f in a.gens if f]
    gbp = [f for f in b.gens if f]
    if not ga or not gbp:
        return Ideal(base, [])
    vecs = [[(term_key(k, 0), c) for k, c in f.terms] for f in ga + gbp]
    source = GradedFreeModule(base, [ambient.vector_degree(v) for v in vecs])
    syz = syzygy_generators(vecs, ambient, source).gb
    ctx = ring.pack.ctx
    p = ring.field.p
    out = []
    for s in syz:
        acc: Vector = []
        for k, c in s:
            pos = term_pos(k)
            if pos >= len(ga):
                continue
            fa = vecs[pos]
            acc = scaled_merge(acc, fa, c, term_okey(k) << POS_BITS, p, ctx)
        if acc:
            out.append(Polynomial(ring, [(term_okey(k), c) for k, c in acc]))
    return Ideal(base, out)


# ---------------------------------------------------------------------------
# ideals and quotient rings


class Ideal:
    """An ideal of a graded quotient of the polynomial ring (or of ``Q/0``)."""

    __slots__ = ("base", "gens", "_sub")

    def __init__(self, base, gens: Sequence[Polynomial]):
        self.base = base
        ring = base.cover
        out = []
        for f in gens:
            if not isinstance(f, Polynomial):
                f = ring.poly(f)
            if f.ring != ring:
                raise ValueError("generator from a different ring")
            f = base.nf(f)
            if f:
                out.append(f)
        self.gens = tuple(out)
        self._sub = None

    @property
    def ring(self) -> PolyRing:
        return self.base.cover

    def submodule(self) -> SubmoduleGB:
        if self._sub is None:
            ambient = GradedFreeModule(self.base, [0])
            self._sub = buchberger(
                [[(term_key(k, 0), c) for k, c in f.terms] for f in self.gens], ambient)
        return self._sub

    def groebner_basis(self) -> Tuple[Polynomial, ...]:
        ring = self.ring
        return tuple(Polynomial(ring, [(term_okey(k), c) for k, c in v])
                     for v in self.submodule().gb)

    def normal_form(self, f: Polynomial) -> Polynomial:
        v = [(term_key(k, 0), c) for k, c in f.terms]
        r = self.submodule().normal_form(v)
        return Polynomial(self.ring, [(term_okey(k), c) for k, c in r])

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f).terms

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def __repr__(self):
        return f"Ideal({self.base!r}, {[str(g) for g in self.gens]})"


class QuotientRing:
    """Graded quotient ``R = Q / I`` by a homogeneous ideal.

    Elements of ``R`` are represented by their normal forms in ``Q`` with
    respect to the reduced basis of ``I``.  Instances cache the expensive
    derived data (resolutions, canonical module, invariants); the cache is
    ignored by equality and hashing.
    """

    __slots__ = ("cover", "ideal", "_gb_polys", "_columns", "_reducer", "cache")

    def __init__(self, cover: PolyRing, ideal):
        self.cover = cover
        if isinstance(ideal, Ideal):
            if ideal.base != cover:
                raise ValueError("ideal over a different ring")
        else:
            ideal = Ideal(cover, list(ideal))
        for g in ideal.gens:
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous ideal generator {g}")
        self.ideal = ideal
        gb = ideal.groebner_basis()
        if gb and gb[0].degree() == 0:
            raise ValueError("ideal is the unit ideal; quotient ring is zero")
        self._gb_polys = gb
        self._columns = tuple(tuple((term_key(k, 0), c) for k, c in g.terms) for g in gb)
        # the ideal alone, which reduces at every position
        self._reducer = make_reducer(cover.field.p, cover.pack.ctx, (), self._columns)
        self.cache: dict = {}

    @property
    def field(self):
        return self.cover.field

    @property
    def variables(self):
        return self.cover.variables

    @property
    def n(self) -> int:
        return self.cover.n

    def ideal_gb_polys(self) -> Tuple[Polynomial, ...]:
        return self._gb_polys

    def ideal_columns(self) -> Tuple[tuple, ...]:
        """The ideal's reduced basis as term tuples at position 0."""
        return self._columns

    def is_polynomial_ring(self) -> bool:
        return not self._gb_polys

    def nf(self, f: Polynomial) -> Polynomial:
        if f.ring != self.cover:
            raise ValueError("element from a different ring")
        v = [(term_key(k, 0), c) for k, c in f.terms]
        r = self._reducer.nf(v)
        return Polynomial(self.cover, [(term_okey(k), c) for k, c in r])

    def normal_form_vector(self, v: Vector) -> Vector:
        """Normal form of a vector modulo I times the free module.  An
        ideal element reduces a term into terms at the term's own position,
        so this is the componentwise normal form."""
        return self._reducer.nf(v)

    def poly(self, text: str) -> Polynomial:
        return self.nf(self.cover.poly(text))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, QuotientRing)
            and other.cover == self.cover
            and other._gb_polys == self._gb_polys
        )

    def __hash__(self):
        return hash((self.cover, self._gb_polys))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal.gens) or "0"
        return f"QuotientRing({self.cover!r} / ({gens}))"
