"""Subquotients, homology at one term, Hom, tensor, isomorphism probes.

Everything here presents derived modules as ``PresentedModule`` instances.
There is one grid builder, from a free matrix ``d : F -> G`` and a module
M: ``G (x) M`` is the free module on the twisted copies of M's generators,
one copy per basis vector of G (``_grid``), the copies' relations are M's,
moved copy by copy (``copy_shift``), and ``d (x) M`` is d's columns grafted
onto each generator of M (``_grafted``).  Hom out of a free module is
tensor with its dual, ``Hom(F, M) = F* (x) M``, so ``Hom(d, M)`` is
``d.transpose_dual() (x) M``.  One routine, ``_homology(d, M, into)``,
computes every kernel of ``d (x) M`` modulo the image of ``into (x) M``,
and one, ``tensor_cokernel(d, M)``, every cokernel of ``d (x) M``.  Tor
over a free resolution F is the homology of ``F (x) M``
(``tensor_homology``), Ext that of the dual complex ``F* (x) M``
(``hom_cohomology``), Hom(A, B) the kernel on A's transposed presentation
matrix, A (x) B the cokernel on A's presentation matrix, and E a cokernel
over R (``characteristic.quasi_canonical``).
A map is onto, in ``is_isomorphism`` and for ``iso_probe``'s trial maps
alike, when its cokernel is zero: one rank over the field of the scalar
part of its columns and the codomain's relations (``scalar_rank``, as
``nu`` counts); no cokernel module is built.
Each homology runs at most two eliminations and no other Groebner run: the
cycles' reduced basis is the first one's marker block, and it generates
the result (canonical, so Hom bases and trial indices never move); the
relations' reduced basis is the second one's and seeds ``relation_gb``.
The known block of the cycles elimination (see ``groebner``) comes from M
itself: when M holds its relation basis, the copies' basis is M's, moved
copy by copy, and the elimination starts from it instead of from the
copies' relation columns.
``iso_probe`` reads Hom(A, B) in degree 0 only.  Between two cyclic
modules R/J(-t) and R/J'(-t) it builds nothing: Hom is (J' : J)/J', so
its degree-0 part is the scalars when the relation bases are equal and 0
otherwise.  For any other pair it builds Hom only through degree 0
(``_hom`` with ``upto=0``): the cycles and the relations come from
degree-bounded eliminations (see ``groebner``), which give the degree <= 0
part of the full reduced bases, in the same order, so the degree-0 basis,
and with it every trial index, is the full Hom's.  That module equals
Hom(A, B) in degrees <= 0 and nowhere else, so it never leaves the probe;
``hom_module`` always builds the whole module.
Subquotients, Hom modules and tensor products keep their construction
data in the module cache under ``"origin"``: natural maps are realized as
matrices from it later, and ``ModuleMap.is_isomorphism`` reads the Hilbert
series of ``A (x) B`` off the smaller grid of ``A (x) B.minimal()``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from .freemod import (
    GradedFreeModule,
    GradedMatrix,
    Vector,
    term_key,
    term_okey,
    term_pos,
)
from .groebner import SubmoduleGB, express_in_basis, syzygy_generators
from .invariants import hilbert_series_leads, q_resolution
from .kernel import POS_BITS, POS_MASK, scaled_merge
from .resolution import FreeResolution, PresentedModule, scalar_rank


# ---------------------------------------------------------------------------
# degreewise bases


def monomial_okeys(ring, d: int) -> List[int]:
    """Order keys of all degree-d monomials, descending.

    Built one variable at a time: each partial exponent tuple carries the
    degree left for the variables after it, and the last takes the rest.
    """
    if d < 0:
        return []
    parts = [((), d)]
    for _ in range(ring.n - 1):
        parts = [(exps + (e,), rem - e) for exps, rem in parts for e in range(rem + 1)]
    okey = ring.pack.okey
    out = [okey(exps + (rem,)) for exps, rem in parts]
    out.sort(reverse=True)
    return out


def module_basis(M: PresentedModule, d: int) -> List[int]:
    """Term keys of the standard monomial basis of the degree-d piece.

    Standard monomials are those not divisible by any lead term of the
    relation basis (including the defining ideal of the base).
    """
    gb = M.relation_gb()
    ring = M.ring
    keys: List[int] = []
    for pos, tw in enumerate(M.gens.twists):
        for okey in monomial_okeys(ring, d - tw):
            key = term_key(okey, pos)
            if not gb.lead_reducible(key):
                keys.append(key)
    keys.sort(reverse=True)
    return keys


def hilbert_function_basis(M: PresentedModule, lo: int, hi: int) -> List[int]:
    """Degreewise dimensions [dim M_lo, ..., dim M_hi].

    Read off the cached lead-term Hilbert series of M: the standard
    monomial basis is counted, never enumerated.  ``module_basis`` gives
    the same numbers by enumeration, and the tests cross-check the two.
    """
    return hilbert_series_leads(M).values(lo, hi)


# ---------------------------------------------------------------------------
# maps of presented modules


class ModuleMap:
    """A homogeneous degree-0 map of presented modules: it sends each graded
    piece of the domain into the codomain's piece of the same degree.

    ``matrix`` maps the generator ambient of the domain to that of the
    codomain and must send relations into relations; set ``check`` to
    verify that on construction.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: PresentedModule, codomain: PresentedModule,
                 matrix: GradedMatrix, check: bool = True):
        if matrix.source != domain.gens or matrix.target != codomain.gens:
            raise ValueError("matrix shape does not match modules")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        if check:
            gb = codomain.relation_gb()
            for col in domain.rels.cols:
                if not gb.contains(matrix.apply(list(col))):
                    raise ValueError("matrix does not send relations to relations")

    def is_surjective(self) -> bool:
        """Onto when the cokernel, the codomain modulo the matrix's columns
        and its relations, is zero: by graded Nakayama, when the scalar
        part of those columns has full rank (``PresentedModule.nu``)."""
        B = self.codomain
        return scalar_rank(self.matrix.cols + B.rels.cols, B.ring.field.p) == B.gens.rank

    def is_isomorphism(self) -> bool:
        """Onto, with equal Hilbert series: the graded pieces have finite
        dimension, so an onto degree-0 map is bijective exactly when the
        Hilbert functions agree.  No kernel is built.

        A side that is a tensor product ``A (x) B`` has its series read off
        ``A (x) B.minimal()`` (``_series``): the two are isomorphic graded
        modules, so the series, and the verdict, are the same, but the
        smaller grid needs a far smaller relation basis."""
        return self.is_surjective() and _series(self.domain) == _series(self.codomain)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        if other.codomain is not self.domain and other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return ModuleMap(other.domain, self.codomain,
                         self.matrix.compose(other.matrix), check=False)

    def __repr__(self):
        return f"<ModuleMap {self.domain!r} -> {self.codomain!r}>"


def _series(M: PresentedModule):
    """Hilbert series of M, from ``A (x) B.minimal()`` when M is the tensor
    product ``A (x) B`` and B is not minimal, else from M itself."""
    origin = M.cache.get("origin")
    if origin is not None and origin["kind"] == "tensor":
        Bm = origin["B"].minimal()
        if Bm is not origin["B"]:
            return hilbert_series_leads(tensor_module(origin["A"], Bm))
    return hilbert_series_leads(M)


def subquotient(numerator: SubmoduleGB, denominator: Sequence[Vector],
                upto: Optional[int] = None) -> PresentedModule:
    """The module numerator / (span of denominator) in the numerator's ambient.

    Generators of the result are the numerator's reduced basis, which is
    canonical, so Hom bases and ``iso_probe``'s trial indices do not depend
    on how the numerator was found (minimal generators would move them).
    The denominator must lie in the numerator; this is not checked, since
    the denominators ``_homology`` passes are cycles by construction.  The
    relations are the syzygies of the generators modulo the denominator;
    their elimination basis is the reduced relation basis and seeds
    ``relation_gb``.  The construction data is attached for later reference
    to the generators.

    With ``upto`` the numerator basis must lie in degrees at most ``upto``;
    only the denominators and relations of such degree are kept, so the
    result is the true subquotient in those degrees only.
    """
    num, ambient = numerator, numerator.ambient
    if upto is not None:
        denominator = [v for v in denominator if v and ambient.vector_degree(v) <= upto]
    gens_fm = GradedFreeModule(ambient.base, [ambient.vector_degree(g) for g in num.gb])
    rels = syzygy_generators(num.gb, ambient, gens_fm, extra_unmarked=denominator,
                             upto=upto)
    src = GradedFreeModule(ambient.base, [gens_fm.vector_degree(s) for s in rels.gb])
    out = PresentedModule(gens_fm, GradedMatrix(src, gens_fm, rels.gb))
    out.cache["origin"] = {"kind": "subquotient", "numerator": num}
    out.cache["relation_gb"] = rels
    return out


def subquotient_realize(M: PresentedModule, v: Vector) -> Vector:
    """Ambient vector of an element given in generator coordinates."""
    origin = M.cache["origin"]
    num: SubmoduleGB = origin["numerator"]
    ring = M.ring
    p = ring.field.p
    ctx = ring.pack.ctx
    out: Vector = []
    for key, c in v:
        g = num.gb[term_pos(key)]
        out = scaled_merge(out, list(g), c, term_okey(key) << POS_BITS, p, ctx)
    return M.base.normal_form_vector(out)


def subquotient_express(M: PresentedModule, v: Vector) -> Vector:
    """Generator coordinates of an ambient vector lying in the numerator."""
    origin = M.cache["origin"]
    coords = express_in_basis(origin["numerator"], list(v))
    if coords is None:
        raise ValueError("vector is not in the numerator submodule")
    return coords


# ---------------------------------------------------------------------------
# Hom and tensor


def _grid(outer_twists: Sequence[int], M: PresentedModule) -> GradedFreeModule:
    """The free module on the generators of the copies ``M(t)``, one per
    outer twist t: grid position ``a*rank(M) + j`` is generator j of copy a."""
    return GradedFreeModule(M.base, [b + t for t in outer_twists for b in M.gens.twists])


def copy_shift(cols: Sequence[Vector], count: int, width: int) -> Tuple[Vector, ...]:
    """The vectors ``cols`` over a rank-``width`` free module, on each of
    ``count`` copies of it side by side, copy by copy: copy a moves them by
    the constant position shift ``a*width``, which keeps their term order."""
    return tuple([tuple([(k - a * width, c) for k, c in col])
                  for a in range(count) for col in cols])


def _grafted(d: GradedMatrix, M: PresentedModule) -> Tuple[Vector, ...]:
    """The columns of ``d (x) M`` for a free matrix d over M's base or its
    cover: column ``b*rank(M) + j`` is column b of d grafted onto generator
    j of M, its position a moved to grid position ``a*rank(M) + j``, and
    reduced modulo M's ideal when d lives over the cover.  That move takes
    key k to ``k - a*(rank(M) - 1) - j``; it is increasing in a, so each
    column keeps its term order."""
    rM = M.gens.rank
    cols = [[(k - (POS_MASK - (k & POS_MASK)) * (rM - 1) - j, c) for k, c in col]
            for col in d.cols for j in range(rM)]
    if d.base != M.base:
        cols = map(M.base.normal_form_vector, cols)
    return tuple(map(tuple, cols))


def tensor_cokernel(d: GradedMatrix, M: PresentedModule) -> PresentedModule:
    """The cokernel of ``d (x) M`` for a free matrix ``d : F -> G``: the grid
    of ``G (x) M`` modulo d's grafted columns, then the copies' relations.
    ``minimal`` cancels the smallest unit pivot, so this column order
    reaches the output."""
    gens = _grid(d.target.twists, M)
    twists = [b + t for t in d.source.twists for b in M.gens.twists]
    twists += [r + t for t in d.target.twists for r in M.rels.source.twists]
    cols = _grafted(d, M) + copy_shift(M.rels.cols, d.target.rank, M.gens.rank)
    return PresentedModule(gens, GradedMatrix(GradedFreeModule(M.base, twists), gens, cols))


def tensor_homology(F: FreeResolution, M: PresentedModule, lo: int,
                    hi: int) -> List[PresentedModule]:
    """``H_i(F (x) M)`` for i = lo..hi, minimally presented, for a free
    resolution F."""
    return [homology_at(F.diff(i), F.diff(i + 1), M) for i in range(lo, hi + 1)]


def hom_cohomology(F: FreeResolution, M: PresentedModule, lo: int,
                   hi: int) -> List[PresentedModule]:
    """``H^i(Hom(F, M))`` for i = lo..hi, minimally presented, for a free
    resolution F.  ``Hom(F_i, M)`` is ``F_i* (x) M``, so this is the
    homology of the dual complex, whose matrices are the transposed
    differentials."""
    return [homology_at(F.diff(i + 1).transpose_dual(), F.diff(i).transpose_dual(), M)
            for i in range(lo, hi + 1)]


def tensor_module(A: PresentedModule, B: PresentedModule) -> PresentedModule:
    """A tensor B over the base: the cokernel of ``F_1 (x) B -> F_0 (x) B``
    on A's presentation, ``tensor_cokernel(A.rels, B)``.

    Grid position ``i*rank(B) + j`` is the generator ``a_i (x) b_j``.  The
    relations of A come first, then those of the copies of B.  When B is the
    base ring (one generator in degree 0, no relations) that presentation
    equals A by value, so A itself is returned, with its cached bases and
    its own ``origin``.  Any other result records ``origin`` of kind
    ``"tensor"`` with these very A and B.
    """
    if B.base != A.base:
        raise ValueError("tensor factors over different bases")
    if B.gens.twists == (0,) and B.rels.source.rank == 0:
        return A
    out = tensor_cokernel(A.rels, B)
    out.cache["origin"] = {"kind": "tensor", "A": A, "B": B}
    return out


def hom_module(A: PresentedModule, B: PresentedModule) -> PresentedModule:
    """Hom(A, B) over the base: the kernel of ``Hom(F_0, B) -> Hom(F_1, B)``
    on A's presentation, which is the transposed presentation matrix
    tensored with B, not minimalized, so its generators stay tied to maps.

    An element of the ambient at grid position ``i*rank(B) + j`` is the
    coefficient of the matrix entry sending generator ``i`` of A to
    generator ``j`` of B.  The cycles are the matrices sending relations of
    A into relations of B; the denominator is ``(relations of B) o
    (arbitrary maps)``.  The result's ``origin`` holds these very A and B;
    ``char_via_hom`` memoizes it in B's own cache, so a route result's
    ``origin`` holds its caller's own E and M, never equal copies.
    """
    return _hom(A, B)


def _hom(A: PresentedModule, B: PresentedModule,
         upto: Optional[int] = None) -> PresentedModule:
    """``hom_module(A, B)``, or with ``upto`` its generators and relations
    of degree at most ``upto`` only: a module that equals Hom(A, B) in those
    degrees and nowhere else, for ``iso_probe``, which reads degree 0."""
    if B.base != A.base:
        raise ValueError("Hom factors over different bases")
    out = _homology(A.rels.transpose_dual(), B, upto=upto)
    out.cache["origin"].update({"kind": "hom", "A": A, "B": B})
    return out


def hom_realize(H: PresentedModule, v: Vector) -> GradedMatrix:
    """Matrix ``F_0(A) -> F_0(B)`` of a Hom-module element given in
    generator coordinates."""
    origin = H.cache["origin"]
    A: PresentedModule = origin["A"]
    B: PresentedModule = origin["B"]
    rB = B.gens.rank
    flat = subquotient_realize(H, list(v))
    cols: List[Vector] = [[] for _ in range(A.gens.rank)]
    for key, c in flat:
        pos = term_pos(key)
        i, j = divmod(pos, rB)
        cols[i].append((term_key(term_okey(key), j), c))
    for col in cols:
        col.sort(reverse=True)
    return GradedMatrix(A.gens, B.gens, cols)


def hom_express(H: PresentedModule, cols: Sequence[Vector]) -> Vector:
    """Generator coordinates in a Hom module of a compatible map, given by
    the images ``cols[i]`` of the generators of A as vectors over ``F_0(B)``,
    in normal form modulo the ideal."""
    rB = H.cache["origin"]["B"].gens.rank
    flat: Vector = []
    for i, col in enumerate(cols):
        shift = i * rB
        flat += [(key - shift, c) for key, c in col]
    flat.sort(reverse=True)
    return H.base.normal_form_vector(subquotient_express(H, flat))


# ---------------------------------------------------------------------------
# homology


def _homology(d: GradedMatrix, M: PresentedModule, into: Optional[GradedMatrix] = None,
              upto: Optional[int] = None) -> PresentedModule:
    """``ker(d (x) M) / im(into (x) M)`` for free matrices ``into : E -> F``
    and ``d : F -> G``: a subquotient of the grid ``F (x) M`` whose
    denominator is the copies' relations, then ``into``'s grafted columns.
    The cycles' basis is the syzygy basis of d's grafted columns modulo the
    relations of the copies in ``G (x) M``, or the unit vectors (in
    descending key order) when that grid is zero.  When M holds its
    relation basis (``"relation_gb" in M.cache``), the elimination starts
    from the copies' relation basis as a known block: they sit in disjoint
    positions, so that basis is M's ``gb`` moved copy by copy, sorted
    descending by lead as ``_autoreduce`` leaves it.  Otherwise it starts
    from their relation columns; it never computes a relation basis just
    for this, which costs more than it saves.  With
    ``upto`` the result is built, and is right, in degrees at most ``upto``
    only (see ``subquotient``).
    """
    rM = M.gens.rank
    X = _grid(d.source.twists, M)
    if d.target.rank * rM == 0:
        num = SubmoduleGB(X, tuple(tuple(X.basis_vector(t)) for t, tw in enumerate(X.twists)
                                   if upto is None or tw <= upto))
    else:
        Y = _grid(d.target.twists, M)
        cols = _grafted(d, M)
        if "relation_gb" in M.cache:
            known = sorted(copy_shift(M.relation_gb().gb, d.target.rank, rM), reverse=True)
            num = syzygy_generators(cols, Y, X, upto=upto, known=known)
        else:
            rels = copy_shift(M.rels.cols, d.target.rank, rM)
            num = syzygy_generators(cols, Y, X, extra_unmarked=rels, upto=upto)
    den = copy_shift(M.rels.cols, d.source.rank, rM)
    if into is not None:
        den += _grafted(into, M)
    return subquotient(num, [c for c in den if c], upto=upto)


def homology_at(d: GradedMatrix, into: GradedMatrix, M: PresentedModule) -> PresentedModule:
    """Homology ``ker(d (x) M) / im(into (x) M)`` at the term between two
    free matrices, minimally presented."""
    if into.target != d.source:
        raise ValueError("the maps do not meet at one term")
    return _homology(d, M, into).minimal()


# ---------------------------------------------------------------------------
# isomorphism probing


class IsoProbeResult:
    """Outcome of a (partially heuristic) isomorphism test."""

    __slots__ = ("verdict", "certificate")

    VERDICTS = ("certified_nonisomorphic", "probably_isomorphic", "inconclusive")

    def __init__(self, verdict: str, certificate: dict):
        if verdict not in self.VERDICTS:
            raise ValueError(f"bad verdict {verdict}")
        self.verdict = verdict
        self.certificate = certificate

    def __repr__(self):
        return f"IsoProbeResult({self.verdict!r}, {self.certificate!r})"


# random degree-0 maps iso_probe tries before it gives up
ISO_TRIALS = 8


def _winning_trial(Am: PresentedModule, Bm: PresentedModule, size: int,
                   realize: Callable[[List[int]], GradedMatrix], seed: int) -> Optional[int]:
    """Index of the first of ``ISO_TRIALS`` sampled degree-0 maps
    ``Am -> Bm`` that is onto, or None.

    Each trial draws ``size`` coefficients, one per element of a basis of
    Hom(Am, Bm) in degree 0, and ``realize`` turns a draw that is not all
    zero into the map's matrix; an all-zero draw is skipped.  The draws and
    the onto test are the same for every basis, so two bases listing the
    same maps in the same order give the same index."""
    if not size:
        return None
    p = Am.ring.field.p
    rng = random.Random(seed)
    for trial in range(ISO_TRIALS):
        coeffs = [rng.randrange(p) for _ in range(size)]
        if not any(coeffs):
            continue
        if ModuleMap(Am, Bm, realize(coeffs), check=False).is_surjective():
            return trial
    return None


def iso_probe(A: PresentedModule, B: PresentedModule, seed: int = 0) -> IsoProbeResult:
    """Decide graded isomorphism as far as honestly possible.

    The window runs from the lowest generator degree of A and B to the
    highest plus 8.  In order:

    1. Graded Hilbert functions that differ on the window certify
       non-isomorphism.  They are compared only when the full Hilbert
       series differ: equal series give equal values on any window.
    2. If the full Hilbert series are equal and a nonzero degree-0
       homomorphism exists, up to ``ISO_TRIALS`` sampled degree-0 maps are
       tried; the first that is onto yields "probably_isomorphic".
    3. Otherwise graded Betti tables over the cover ring (homological degree
       at most 3) that differ, then full Hilbert series that differ (the
       tables can agree while the series do not: they differ past
       homological degree 3, in degrees past the window), then the lack of
       a nonzero degree-0 homomorphism, certify non-isomorphism.  Then the
       trials of step 2, which have run, decide: a winner yields
       "probably_isomorphic", and no winner "inconclusive".

    Step 2 may skip the Betti tables.  An onto degree-0 map between modules
    with equal Hilbert series is bijective in every degree, hence an
    isomorphism, and isomorphic modules have equal Betti tables.  So the
    Betti comparison could not fail, and verdict and certificate are those
    of running step 3 first.  Equality on the window alone is not enough:
    GF(p)[x,y] and GF(p)[x,y]/(x^9) agree in degrees 0..8, and a surjection
    between them exists.

    A trial map is onto when its cokernel is zero, which graded Nakayama
    decides by one rank over the field (``ModuleMap.is_surjective``); with the
    Hilbert functions equal on the window, an onto map is bijective there.

    Step 2 reads Hom(A, B) in degree 0 only, the minimal presentations'
    maps.  When both are cyclic with one twist, R/J(-t) and R/J'(-t), it
    builds no Hom: Hom(R/J, R/J') = (J' :_R J)/J' (Eisenbud, GTM 150), whose
    degree-0 part is the scalars when J is in J' and 0 otherwise, and J in
    J' with equal Hilbert series forces J = J'.  The relation bases are
    reduced, so canonical, and already cached by the series comparison;
    J = J' exactly when they are equal.  Then the full Hom's degree-0 basis
    is the identity alone, so each trial draws one coefficient c, as it
    would there, and tries c * identity: verdicts, certificates and trial
    indices are those of the full Hom.

    Otherwise Hom(A, B) is built only through degree 0: its generators are
    the degree <= 0 elements of the full Hom's generator basis, a sub-list
    in the same order, renumbered monotonically, and its relations those
    of degree <= 0.  So ``module_basis(H, 0)`` lists the same maps in the
    same order as on the full Hom, the same random coefficients realize
    the same matrices, and verdicts, certificates and trial indices are
    those of the full Hom.
    """
    Am = A.minimal()
    Bm = B.minimal()
    if Am.gens.rank == 0 and Bm.gens.rank == 0:
        return IsoProbeResult("probably_isomorphic", {"reason": "both modules are zero"})
    twists = list(Am.gens.twists) + list(Bm.gens.twists)
    lo, hi = min(twists), max(twists) + 8
    same_series = hilbert_series_leads(Am) == hilbert_series_leads(Bm)
    if not same_series:  # equal series give equal values on any window
        hfA = hilbert_function_basis(Am, lo, hi)
        hfB = hilbert_function_basis(Bm, lo, hi)
        for off, (da, db) in enumerate(zip(hfA, hfB)):
            if da != db:
                return IsoProbeResult("certified_nonisomorphic", {
                    "reason": "hilbert function differs",
                    "degree": lo + off, "dims": [da, db]})
    trial = None
    if same_series:
        if Am.gens.rank == 1 and Am.gens == Bm.gens:
            # R/J(-t) and R/J'(-t): Hom is (J' : J)/J', so in degree 0 the
            # scalars when J = J' and 0 otherwise; a map is c * identity
            size = int(Am.relation_gb().gb == Bm.relation_gb().gb)

            def realize(coeffs: List[int]) -> GradedMatrix:
                return GradedMatrix(Am.gens, Bm.gens, [[(term_key(0, 0), coeffs[0])]])
        else:
            H = _hom(Am, Bm, upto=0)
            basis0 = module_basis(H, 0)
            size = len(basis0)

            def realize(coeffs: List[int]) -> GradedMatrix:
                # element of Hom in generator coordinates: key encodes mono and gen
                return hom_realize(H, [(key, c) for key, c in zip(basis0, coeffs) if c])
        trial = _winning_trial(Am, Bm, size, realize, seed)
    if trial is None:
        bA = q_resolution(Am).betti().restrict(3)
        bB = q_resolution(Bm).betti().restrict(3)
        if bA != bB:
            return IsoProbeResult("certified_nonisomorphic", {
                "reason": "graded Betti numbers over the cover differ",
                "betti": [bA.rows(), bB.rows()]})
        if not same_series:
            return IsoProbeResult("certified_nonisomorphic", {
                "reason": "hilbert series differs"})
        if not size:
            return IsoProbeResult("certified_nonisomorphic", {
                "reason": "no nonzero degree-0 homomorphisms"})
    if trial is None:
        return IsoProbeResult("inconclusive", {
            "reason": "invariants agree but no sampled map was bijective",
            "trials": ISO_TRIALS, "degree_range": [lo, hi]})
    return IsoProbeResult("probably_isomorphic", {
        "reason": "random degree-0 map bijective in all checked degrees",
        "seed": seed, "trial": trial, "degree_range": [lo, hi]})
