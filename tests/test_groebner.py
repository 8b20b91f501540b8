"""Groebner bases: reduced-basis goldens, membership, colon, intersection,
syzygies by elimination (the one syzygy engine) and their per-ring memo,
reduced bases compared
with sympy's over GF(p), and the position-indexed pair handling compared
with an engine that scans the whole basis."""

import heapq
import inspect
import itertools
import math
import random
import re
from types import SimpleNamespace

import pytest

from charmod import corpus, groebner
from charmod.characteristic import char_module, check_thm8, quasi_canonical
from charmod.cmr import load, parse
from charmod.freemod import GradedFreeModule, GradedMatrix, term_key, term_okey, term_pos, v_scale
from charmod.groebner import (
    Ideal,
    QuotientRing,
    buchberger,
    intersect_ideals,
    quotient,
    syzygy_generators,
)
from charmod.invariants import residue_field_of
from charmod.kernel import POS_BITS, make_reducer
from charmod.ring import PolyRing

from conftest import (FIXTURES, componentwise_normal_form_vector, cycles_elimination,
                      exps_of_degree, homology_calls, matrix_from_columns, monomial_lcm,
                      monomial_mul, rational_normal_curve)


@pytest.fixture(scope="module")
def twisted_cubic():
    ring = PolyRing(32003, ("w", "x", "y", "z"))
    gens = [ring.poly("x^2-w*y"), ring.poly("y^2-x*z"), ring.poly("x*y-w*z")]
    return ring, Ideal(ring, gens)


def test_reduced_basis_golden(twisted_cubic):
    _, ideal = twisted_cubic
    assert [str(g) for g in ideal.groebner_basis()] == [
        "x^2-w*y", "x*y-w*z", "y^2-x*z"]


def test_reduced_basis_is_autoreduced(twisted_cubic):
    ring, ideal = twisted_cubic
    gb = ideal.groebner_basis()
    for i, g in enumerate(gb):
        assert g.terms[0][1] == 1
        # monic, and no term of g reduces modulo the other elements
        rest = Ideal(ring, [h for j, h in enumerate(gb) if j != i])
        assert rest.normal_form(g) == g


def test_reduced_basis_independent_of_generator_order(twisted_cubic):
    ring, ideal = twisted_cubic
    reference = ideal.groebner_basis()
    for perm in itertools.permutations(ideal.gens):
        assert Ideal(ring, list(perm)).groebner_basis() == reference


def test_reduced_basis_independent_of_presentation():
    ring = PolyRing(101, ("x", "y", "z"))
    f, g = ring.poly("x^2+y^2"), ring.poly("x*y+z^2")
    base = Ideal(ring, [f, g])
    mixed = Ideal(ring, [f + g, g, ring.poly("3") * f])
    assert base.groebner_basis() == mixed.groebner_basis()


def test_membership_and_normal_form(twisted_cubic):
    ring, ideal = twisted_cubic
    f = ring.poly("x^3-w*x*y")  # x * (x^2 - w y)
    assert ideal.contains(f)
    assert ideal.normal_form(f).is_zero()
    g = ring.poly("x^3")
    assert not ideal.contains(g)
    nf = ideal.normal_form(g)
    assert ideal.contains(g - nf)
    # normal form is idempotent and k-linear
    assert ideal.normal_form(nf) == nf
    h = ring.poly("w*y*z+z^3")
    assert ideal.normal_form(g + h) == nf + ideal.normal_form(h)


def test_trivial_ideals():
    ring = PolyRing(13, ("x", "y"))
    assert Ideal(ring, []).is_zero()
    assert Ideal(ring, [ring.poly("0")]).is_zero()
    unit = Ideal(ring, [ring.poly("x"), ring.poly("3")])
    assert unit.groebner_basis() == (ring.one(),)
    assert unit.contains(ring.one())


def test_ideal_equality_compares_reduced_bases():
    ring = PolyRing(101, ("x", "y"))
    a = Ideal(ring, [ring.poly("x"), ring.poly("y")])
    b = Ideal(ring, [ring.poly("x+y"), ring.poly("y")])
    assert a.groebner_basis() == b.groebner_basis()
    assert a.groebner_basis() != Ideal(ring, [ring.poly("x")]).groebner_basis()


def test_colon_ideal_oracle():
    ring = PolyRing(101, ("x", "y"))
    ideal = Ideal(ring, [ring.poly("x^2"), ring.poly("x*y")])
    unit = (ring.one(),)
    col = quotient(ideal.submodule(), [ring.poly("x")])
    xy = Ideal(ring, [ring.poly("x"), ring.poly("y")])
    assert col.groebner_basis() == xy.groebner_basis()
    # colon by an element of the ideal is the unit ideal
    assert quotient(ideal.submodule(), [ring.poly("x^2")]).groebner_basis() == unit
    # colon by 1 returns the ideal itself
    same = quotient(ideal.submodule(), [ring.one()])
    assert same.groebner_basis() == ideal.groebner_basis()
    # colon by zero is the unit ideal
    assert quotient(ideal.submodule(), [ring.poly("0")]).groebner_basis() == unit


def test_colon_oracle_by_membership_scan():
    # brute-force check on a small degree window: a is in (I : e) iff a*e in I
    ring = PolyRing(13, ("x", "y"))
    ideal = Ideal(ring, [ring.poly("x^3"), ring.poly("x*y^2")])
    e = ring.poly("x*y")
    col = quotient(ideal.submodule(), [e])
    rng = random.Random(5)
    mons = ["1", "x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y", "x*y^2", "y^3"]
    for _ in range(60):
        a = sum((ring.poly(m) * ring.poly(str(rng.randrange(13)))
                 for m in rng.sample(mons, 3)), ring.poly("0"))
        assert col.contains(a) == ideal.contains(a * e)


def test_intersection_oracle():
    ring = PolyRing(101, ("x", "y"))
    a = Ideal(ring, [ring.poly("x")])
    b = Ideal(ring, [ring.poly("y")])
    meet = intersect_ideals(a, b)
    assert meet.groebner_basis() == (ring.poly("x*y"),)
    # intersection with a larger ideal returns the smaller one
    m = Ideal(ring, [ring.poly("x"), ring.poly("y")])
    assert intersect_ideals(m, a).groebner_basis() == a.groebner_basis()
    assert intersect_ideals(a, Ideal(ring, [])).is_zero()


def test_intersection_membership_property():
    ring = PolyRing(13, ("x", "y", "z"))
    a = Ideal(ring, [ring.poly("x*y-z^2"), ring.poly("x^2")])
    b = Ideal(ring, [ring.poly("y"), ring.poly("z^3")])
    meet = intersect_ideals(a, b)
    for g in meet.groebner_basis():
        assert a.contains(g) and b.contains(g)
    # witnesses on either side that are not common
    assert not meet.contains(ring.poly("x^2"))
    assert not meet.contains(ring.poly("y"))


def test_koszul_kernel():
    ring = PolyRing(101, ("x", "y"))
    f = matrix_from_columns(ring, [0], [[ring.poly("x")], [ring.poly("y")]])
    ker = syzygy_generators([list(c) for c in f.cols], f.target, f.source)
    syzygy = ker.ambient.vector_from_polys([ring.poly("y"), ring.poly("-x")])
    assert ker.contains(syzygy)
    for v in ker.gb:
        assert f.apply(list(v)) == []


def test_syzygies_annihilate_generators(twisted_cubic):
    ring, ideal = twisted_cubic
    sub = ideal.submodule()
    gens = [sub.ambient.vector_from_polys([f]) for f in ideal.gens]
    twists = [sub.ambient.vector_degree(v) for v in gens]
    syz = syzygy_generators(gens, sub.ambient, GradedFreeModule(ring, twists)).gb
    mat = GradedMatrix(GradedFreeModule(ring, twists), sub.ambient, gens)
    assert syz, "twisted cubic has nontrivial first syzygies"
    for s in syz:
        assert mat.apply(list(s)) == []


def test_syzygy_generators_are_complete():
    # every random relation among the columns reduces to zero mod the syzygies
    ring = PolyRing(101, ("x", "y", "z"))
    cols = [ring.poly("x*y"), ring.poly("y*z"), ring.poly("x*z")]
    ambient = GradedFreeModule(ring, [0])
    vecs = [ambient.vector_from_polys([f]) for f in cols]
    amb2 = GradedFreeModule(ring, [f.degree() for f in cols])
    sgb = syzygy_generators(vecs, ambient, amb2)
    rng = random.Random(9)
    hits = 0
    for _ in range(40):
        coeffs = [ring.poly(m) * ring.poly(str(rng.randrange(1, 101)))
                  for m in rng.sample(["x", "y", "z", "x*y", "z^2", "y^2"], 3)]
        image = sum((c * f for c, f in zip(coeffs, cols)), ring.poly("0"))
        if not image.is_zero():
            continue
        hits += 1
        assert sgb.contains(amb2.vector_from_polys(coeffs))
    # also check handmade relations: z*(xy) - x*(yz) = 0 etc.
    assert sgb.contains(amb2.vector_from_polys(
        [ring.poly("z"), ring.poly("-x"), ring.poly("0")]))
    assert sgb.contains(amb2.vector_from_polys(
        [ring.poly("0"), ring.poly("x"), ring.poly("-y")]))


# ---------------------------------------------------------------------------
# the syzygy memo in the base ring's cache


def _memo_docs():
    """Fresh documents, so their rings have empty caches: the first 10
    acceptance instances and the four fixtures."""
    return corpus.generate_corpus(7, 10, "mixed") + [
        load(FIXTURES / f"{name}.cmr")
        for name in ("veronese", "e2", "hypersurface", "stanley_reisner")]


def _memo_eliminations(M):
    """Two eliminations on M: the syzygies of its relations, and those of
    its generators modulo its relations (an ``extra_unmarked`` input)."""
    units = [M.gens.basis_vector(t) for t in range(M.gens.rank)]
    return [(M.rels.cols, M.gens, M.rels.source, ()),
            (units, M.gens, M.gens, M.rels.cols)]


def test_syzygy_memo_hit_equals_a_fresh_elimination(monkeypatch):
    runs = []
    real = groebner._buchberger_terms

    def counting(*args, **kwargs):
        runs.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_terms", counting)
    for doc, fresh in zip(_memo_docs(), _memo_docs()):
        for (name, M), (_, N) in zip(corpus.module_pool(doc), corpus.module_pool(fresh)):
            assert M.base is not N.base
            for args, fresh_args in zip(_memo_eliminations(M), _memo_eliminations(N)):
                first = syzygy_generators(*args)
                runs.clear()
                # equal inputs in new lists: the memo matches by value
                hit = syzygy_generators([list(v) for v in args[0]], *args[1:3],
                                        [list(v) for v in args[3]])
                assert not runs, name
                want = syzygy_generators(*fresh_args)
                assert len(runs) == 1, name
                assert hit is not first and hit._reducer is None
                assert (hit.ambient, hit.gb) == (first.ambient, first.gb)
                assert (hit.ambient, hit.gb) == (want.ambient, want.gb), name


def test_syzygy_memo_is_per_ring_and_holds_tuples():
    # two rings equal by value keep separate memos, in their own caches;
    # T(k) eliminates over R and, resolving R, over its cover Q
    memos = []
    for _ in range(2):
        R = load(FIXTURES / "e2.cmr").quotient()
        char_module(residue_field_of(R))
        memos.append((R.cache["syzygy_generators"], R.cover.cache["syzygy_generators"]))
    for a, b in zip(*memos):
        assert a and a is not b and a.keys() == b.keys()
        for key, gb in a.items():
            assert gb is not b[key] or gb == ()  # () is one object
            assert type(gb) is tuple and all(type(v) is tuple for v in gb)


def test_quotient_ring_normal_forms():
    ring = PolyRing(32003, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2"), ring.poly("x*y")])
    assert R.poly("x^2+x*y").is_zero()
    assert R.poly("y^3") == ring.poly("y^3")
    assert R.nf(ring.poly("x") * ring.poly("x+y")).is_zero()
    # nf is a ring map on representatives
    f, g = ring.poly("x+y"), ring.poly("x-y")
    assert R.nf(f * g) == R.nf(R.nf(f) * R.nf(g))


def test_normal_form_vector_matches_the_componentwise_reference(monkeypatch):
    # every vector the battery normalizes on the first 15 acceptance
    # instances and the four fixtures, then on a ring with a linear form in
    # its ideal and on a lex ring, against one normal form per component
    # (the first 10 instances sufficed while the engine normalized its
    # inputs and projected its bases here)
    seen = []
    real = QuotientRing.normal_form_vector

    def recording(self, v):
        out = real(self, v)
        seen.append((self, list(v), out))
        return out

    monkeypatch.setattr(QuotientRing, "normal_form_vector", recording)
    for i, doc in enumerate(corpus.generate_corpus(7, 15, "mixed")):
        corpus.corpus_battery(doc, corpus.instance_id("mixed", 7, i), split=True)
    for name in ("veronese", "e2", "hypersurface", "stanley_reisner"):
        corpus.corpus_battery(load(FIXTURES / f"{name}.cmr"), name, split=True)
    battery = len(seen)
    for text in ("field 101\nring x y z w\nideal\nx-2*y+3*w\ny*w-z^2\nend\n",
                 "field 7\nring x y z\norder lex\nideal\nx*z-y^2\nx^2*y-z^3\nend\n"):
        corpus.corpus_battery(parse(text), "extra", split=True)
    monkeypatch.undo()
    assert battery > 1000 and len(seen) > battery + 50
    assert max(term_pos(k) for _, v, _ in seen for k, _ in v) > 10
    assert sum(v != out for _, v, out in seen) > 100
    for R, v, out in seen:
        assert out == componentwise_normal_form_vector(R, v)


def test_quotient_ring_rejects_bad_ideals():
    ring = PolyRing(101, ("x", "y"))
    with pytest.raises(ValueError):
        QuotientRing(ring, [ring.poly("x^2+y")])  # inhomogeneous
    with pytest.raises(ValueError):
        QuotientRing(ring, [ring.poly("1")])  # unit ideal


def test_submodule_membership_over_quotient_ring():
    ring = PolyRing(101, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2"), ring.poly("x*y")])
    ambient = GradedFreeModule(R, [0])
    sub = buchberger([ambient.vector_from_polys([R.poly("y")])], ambient)
    # x*y = 0 in R, so x*e is not in (y)e but x^2*e = 0 is
    assert sub.contains(ambient.vector_from_polys([R.poly("y^2")]))
    assert not sub.contains(ambient.vector_from_polys([R.poly("x")]))
    assert sub.contains(ambient.vector_from_polys([R.poly("x^2")]))


def test_colon_over_quotient_ring():
    ring = PolyRing(101, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2"), ring.poly("x*y")])
    ambient = GradedFreeModule(R, [0])
    zero = buchberger([], ambient)
    ann = quotient(zero, [R.poly("x")])
    # annihilator of x in R = Q/(x^2, xy) is (x, y)
    assert ann.groebner_basis() == Ideal(R, [R.poly("x"), R.poly("y")]).groebner_basis()


# ---------------------------------------------------------------------------
# differential test: reduced bases against sympy's over GF(p)


def _rational_normal_curve(ring):
    """2x2 minors of [[x0 .. x(n-2)], [x1 .. x(n-1)]]."""
    n = ring.n
    gens = []
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            a, b = [0] * n, [0] * n
            a[i] += 1
            a[j + 1] += 1
            b[i + 1] += 1
            b[j] += 1
            f = ring.monomial(a) - ring.monomial(b)
            if not f.is_zero():
                gens.append(f)
    return gens


def _exps_dict(f):
    """{exponent tuple: coefficient} of a polynomial."""
    return {f.ring.pack.exps(k): c for k, c in f.terms}


def _differential_inputs(order):
    """(prime, variables, generator exponent dicts) of every compared ideal:
    mixed corpus seeds 7 and 8 (50 instances each) and the rational normal
    curves in 5 and 6 variables."""
    from charmod.corpus import generate_corpus
    out = []
    for seed in (7, 8):
        for doc in generate_corpus(seed, 50, "mixed"):
            out.append((doc.p, tuple(doc.variables),
                        [_exps_dict(f) for f in doc.ideal_gens]))
    for n in (5, 6):
        ring = PolyRing(32003, tuple(f"x{i}" for i in range(n)), order)
        out.append((32003, ring.variables,
                    [_exps_dict(f) for f in _rational_normal_curve(ring)]))
    return out


def _monic(lc, terms, p):
    """A polynomial made monic, as a frozenset of (exponents, coefficient)."""
    inv = pow(lc % p, p - 2, p)
    return frozenset((tuple(e), c * inv % p) for e, c in terms if c % p)


def _assert_matches_sympy(sympy, p, variables, gens, order):
    """Our reduced basis of the ideal of ``gens`` (exponent dicts) equals
    sympy's, each made monic."""
    ring = PolyRing(p, variables, order)
    ours = Ideal(ring, [ring.from_dict(g) for g in gens]).groebner_basis()
    mine = {_monic(f.terms[0][1], _exps_dict(f).items(), p) for f in ours}
    syms = sympy.symbols(variables)
    polys = [sympy.Poly.from_dict(g, *syms, modulus=p) for g in gens]
    theirs = sympy.groebner(polys, *syms, modulus=p, order=order)
    # sympy's coefficients are symmetric residues, and LC() without an
    # order is the lex leading coefficient
    ref = {_monic(int(g.LC(order=order)), [(e, int(c)) for e, c in g.terms()], p)
           for g in theirs.polys}
    assert mine == ref, (order, p, variables, gens)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    compared = 0
    for p, variables, gens in _differential_inputs(order):
        _assert_matches_sympy(sympy, p, variables, gens, order)
        compared += 1
    assert compared == 102


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_rational_normal_curve_basis_matches_sympy(order, n):
    # seven variables do not fit a machine-word key, so that case runs on
    # the pure kernel whatever is built
    sympy = pytest.importorskip("sympy")
    rng = random.Random(n)
    for p in (101, 32003, 2147483647):
        ring = PolyRing(p, tuple(f"x{i}" for i in range(n)), order)
        assert ring.pack.ctx.fits64 == (n < 7)
        scales = [rng.randrange(1, p) for _ in range(n)]
        gens = [{e: c * math.prod(pow(s, k, p) for s, k in zip(scales, e)) % p
                 for e, c in _exps_dict(f).items()}
                for f in _rational_normal_curve(ring)]
        _assert_matches_sympy(sympy, p, ring.variables, gens, order)


# ---------------------------------------------------------------------------
# differential test: the engine against one that scans the whole basis


def _reference_buchberger_terms(ring, twists, vecs, product=False, known=0, ideal=()):
    """The engine before pairs were indexed by lead position: new pairs and
    the chain criterion scan every basis element and skip other positions,
    and the chain criterion compares exponent tuples, not packed words.
    The first ``known`` inputs enter unreduced and form no pair among
    themselves, as in the engine.  The reducer holds ``ideal`` (at position
    0), whose element h has index h - len(ideal) and a lead at every
    position: each new element pairs with those whose leads are not coprime
    to its own, the pairs not pushed count as treated and the chain
    criterion scans them too, as in the engine.  A new single term pairs
    with no other single term, ideal element or at its position: both are
    monic, so the pair's S-polynomial is 0 and it counts as treated.
    Returns the reduced basis."""
    p = ring.field.p
    pack = ring.pack
    ctx = pack.ctx
    mask = ctx.okey_mask
    red = make_reducer(p, ctx, (), ideal)
    nid = len(ideal)
    G, lead_key, lead_pos = [], [], []
    lead_exps = {h - nid: pack.exps(term_okey(g[0][0])) for h, g in enumerate(ideal)}
    pairs = []
    done = set()

    def treated(a, b):
        return a < 0 and b < 0 or (min(a, b), max(a, b)) in done

    def add_gen(v, pair=True):
        k, c = v[0]
        if c != 1:
            v = v_scale(v, ring.field.inv(c), p)
        t = len(G)
        G.append(v)
        lead_key.append(k)
        lead_exps[t] = et = pack.exps(term_okey(k) & mask)
        lead_pos.append(term_pos(k))
        for i in range(-nid, t):
            if i >= 0 and (not pair or lead_pos[i] != lead_pos[t]):
                continue
            lcm = monomial_lcm(lead_exps[i], et)
            if i < 0 and (not pair or lcm == monomial_mul(lead_exps[i], et)):
                done.add((i, t))
            elif len(v) == 1 and len(G[i] if i >= 0 else ideal[i]) == 1:
                done.add((i, t))  # two monic terms at one position: S-polynomial 0
            else:
                heapq.heappush(pairs, (sum(lcm) + twists[lead_pos[t]], i, t, lcm))
        red.append(v)

    for t, v in enumerate(vecs):
        if v and t < known:
            add_gen(list(v), False)
        elif v:
            r = red.nf(v)
            if r:
                add_gen(r)

    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        if product and i >= 0 and lcm == monomial_mul(lead_exps[i], lead_exps[j]):
            continue
        if any(t != i and t != j and (t < 0 or lead_pos[t] == lead_pos[j])
               and all(a <= b for a, b in zip(lead_exps[t], lcm))
               and treated(i, t) and treated(j, t) for t in range(-nid, len(G))):
            continue
        lk = pack.okey(lcm)
        sh_j = (lk - (term_okey(lead_key[j]) & mask)) << POS_BITS
        if i < 0:  # the ideal element moved to j's lead, its position and block
            g = ideal[i]
            sh_i = lead_key[j] + sh_j - g[0][0]
        else:
            g = G[i]
            sh_i = (lk - (term_okey(lead_key[i]) & mask)) << POS_BITS
        s = groebner.scaled_merge([], g, 1, sh_i, p, ctx)
        s = groebner.scaled_merge(s, G[j], p - 1, sh_j, p, ctx)
        r = red.nf(s)
        if r:
            add_gen(r)

    return groebner._autoreduce(ring, G, ideal)


def _column_reference(ring, parts):
    """The reduced basis ``_buchberger_terms`` returns on raw ``parts``,
    found as it was before the reducers held the ideal: each element g of
    the ideal enters as the columns g * e_pos, pos < r, after the other
    inputs (flagged in an elimination, with the marked inputs that ``upto``
    drops left out), and the full-scan loop runs on them over Q.  Of its
    reduced basis, cut to degree ``upto``, the elements whose lead no ideal
    lead divides are the basis over R; an elimination keeps their marker
    block, moved back."""
    twists, marked, upto = list(parts["twists"]), parts["marked"], parts["upto"]
    r = len(twists)
    flag = 0
    if marked is not None:
        flag = 1 << ring.pack.block_shift
        twists += [ring.pack.deg(term_okey(v[0][0])) + twists[term_pos(v[0][0])] if v else 0
                   for v in marked]

    def flagged(v):
        return [(k + flag, c) for k, c in v]

    def degree(v):
        return ring.pack.deg(term_okey(v[0][0])) + twists[term_pos(v[0][0])]

    vecs = [flagged(v) for v in parts["known"]]
    vecs += [flagged(v) + [(term_key(0, r + j), 1)] for j, v in enumerate(marked or ())
             if upto is None or parts["sources"][j] <= upto]
    vecs += [flagged(v) for v in parts["vecs"]]
    vecs += [flagged([(k - pos, c) for k, c in g]) for g in parts["ideal"] for pos in range(r)]
    basis = _reference_buchberger_terms(ring, twists, vecs, parts["product"],
                                        len(parts["known"]))
    leads = make_reducer(ring.field.p, ring.pack.ctx, (), parts["ideal"])
    return _moved([g for g in basis if leads.find_reducer(g[0][0]) < 0
                   and (upto is None or degree(g) <= upto)], flag or None, r)


_TERMS = inspect.signature(groebner._buchberger_terms)


def _parts(*args, **kwargs):
    """The arguments of a ``_buchberger_terms`` call by name, defaults
    filled in; the ring, when given, among them."""
    bound = _TERMS.bind_partial(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _recorder(calls):
    """A stand-in for ``groebner._buchberger_terms`` that appends the ring
    and the raw parts (``_parts``) of each call to ``calls``."""
    real = groebner._buchberger_terms

    def recording(*args, **kwargs):
        parts = _parts(*args, **kwargs)
        calls.append((parts.pop("ring"), parts))
        return real(*args, **kwargs)

    return recording


def _pure_run(ring, parts):
    """The pure branch of ``_buchberger_terms`` on raw ``parts``: its result,
    the arguments it passes ``_buchberger_loop`` (the ring first) and the
    unreduced basis that returns."""
    seen = []
    loop = groebner._buchberger_loop

    def recording(*args):
        seen.append(args)
        seen.append(loop(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner, "compiled_engine", lambda p, ctx: None)
        m.setattr(groebner, "_buchberger_loop", recording)
        out = groebner._buchberger_terms(ring, **parts)
    return out, seen[0], seen[1]


def _finished(ring, twists, vecs, ideal, product, below, upto, known):
    """The reduced basis from the loop's arguments, cut to the leads below
    ``below`` and not moved."""
    return groebner._autoreduce(ring, groebner._buchberger_loop(
        ring, twists, vecs, ideal, product, below, upto, known), ideal)


def _moved(basis, below, rank):
    """A reduced basis as ``_buchberger_terms`` returns it: in an
    elimination (``below`` set) cut to the leads below the flag and moved
    back from marker position rank + j to j."""
    if below is None:
        return [tuple(g) for g in basis]
    return [tuple((k + rank, c) for k, c in g) for g in basis if g[0][0] < below]


def _engine_inputs(monkeypatch, docs):
    """Every ``_buchberger_terms`` call made by the relation bases and the
    syzygies of the pool modules of ``docs``, as (label, ring, raw parts).
    The documents' rings may keep eliminations memoized by earlier tests, so
    their syzygy memos are emptied first."""
    calls = []
    real = groebner._buchberger_terms
    monkeypatch.setattr(groebner, "_buchberger_terms", _recorder(calls))
    labelled = []
    for doc in docs:
        for name, M in corpus.module_pool(doc):
            M.base.cache.pop("syzygy_generators", None)
            for label, run in (
                    ("relations", lambda: buchberger([list(c) for c in M.rels.cols], M.gens)),
                    ("syzygies", lambda: syzygy_generators([list(c) for c in M.rels.cols],
                                                           M.gens, M.rels.source))):
                calls.clear()
                run()
                labelled += [(f"{name} {label}", ring, parts) for ring, parts in calls]
    monkeypatch.setattr(groebner, "_buchberger_terms", real)
    return labelled


def test_position_indexed_pairs_match_the_full_scan(monkeypatch, mixed_corpus, veronese_doc,
                                                     e2_doc, hypersurface_doc,
                                                     stanley_reisner_doc):
    # bucketing by lead position only matters in rank > 1: relation bases
    # of modules with several generators and every elimination (marked
    # inputs carry one extra position per column) must give the reduced
    # basis of the engine that scans all of G, after reducing as many
    # S-pairs (two merges each), so the chain criterion prunes as before;
    # an elimination autoreduces only its marker block, which must be the
    # reference's full reduced basis cut to the leads below the flag and
    # moved back to the marked inputs' positions; over a quotient ring it
    # is also the basis the ideal columns gave
    docs = list(mixed_corpus[:10]) + [veronese_doc, e2_doc, hypersurface_doc,
                                      stanley_reisner_doc]
    inputs = _engine_inputs(monkeypatch, docs)
    merges = []
    real_merge = groebner.scaled_merge

    def counting(*args):
        merges.append(None)
        return real_merge(*args)

    monkeypatch.setattr(groebner, "scaled_merge", counting)
    ranks = {"relations": 0, "syzygies": 0}
    for label, ring, parts in inputs:
        merges.clear()
        ours, (_, twists, vecs, ideal, product, below, _, known), _ = _pure_run(ring, parts)
        ours_merges = len(merges)
        assert (below is not None) == (label.split()[-1] == "syzygies"), label
        merges.clear()
        ref = _reference_buchberger_terms(ring, twists, vecs, product, known, ideal)
        assert list(ours) == _moved(ref, below, len(parts["twists"])), label
        assert ours_merges == len(merges), label
        assert list(ours) == _column_reference(ring, parts), label
        if len(twists) > 1:
            ranks[label.split()[-1]] += 1
    assert ranks == {"relations": 4, "syzygies": 25}, ranks


def test_degree_bounded_run_is_the_full_basis_cut(monkeypatch, mixed_corpus, veronese_doc,
                                                  e2_doc, hypersurface_doc,
                                                  stanley_reisner_doc):
    # iso_probe builds Hom(A, B) only through degree 0: on homogeneous input
    # a run bounded by d, an elimination or not, must return the elements of degree <= d of the full
    # reduced basis, in order, for every d from below the lowest input
    # degree (nothing) to the highest basis degree (everything)
    docs = list(mixed_corpus[:10]) + [veronese_doc, e2_doc, hypersurface_doc,
                                      stanley_reisner_doc]
    strict = 0
    for label, ring, parts in _engine_inputs(monkeypatch, docs):
        strict += _assert_bounded_runs_cut_the_full_basis(_pure_run(ring, parts)[1], label)
    assert strict > 0


def _assert_bounded_runs_cut_the_full_basis(args, label):
    """A run bounded by d returns the degree <= d part of the full reduced
    basis, for every d from below the lowest input degree to the highest
    basis degree; returns how many bounds cut strictly inside the basis.
    ``args`` are the arguments of an unbounded ``_buchberger_loop`` run."""
    ring, twists, vecs, ideal, product, below, _, known = args

    def degree(v):
        return ring.pack.deg(term_okey(v[0][0])) + twists[term_pos(v[0][0])]

    full = _finished(ring, twists, vecs, ideal, product, below, None, known)
    # no degree at all when every input lies in I times the free module
    degrees = [degree(v) for v in vecs if v] + [degree(g) for g in full] or [0]
    strict = 0
    for d in range(min(degrees) - 1, max(degrees) + 1):
        cut = [g for g in full if degree(g) <= d]
        got = _finished(ring, twists, vecs, ideal, product, below, d, known)
        assert got == cut, (label, d)
        strict += 0 < len(cut) < len(full)
    return strict


def _drawn_ideals(order, count, seed):
    """Rings and generators of ``count`` random homogeneous ideals in 3 or 4
    variables over GF(101), of 3 to 5 generators of degree 3 to 6."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice((3, 4))
        ring = PolyRing(101, tuple("xyzw"[:n]), order)
        gens = []
        for _ in range(rng.randint(3, 5)):
            d = rng.randint(3, 6)
            gens.append({exps_of_degree(rng, n, d): rng.randrange(1, 101)
                         for _ in range(rng.randint(2, 3))})
        out.append((ring, gens))
    return out


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_packed_chain_criterion_prunes_as_the_exponent_tuples(monkeypatch, order):
    # the chain criterion divides packed exponent words, a pair's lcm word
    # being the field-wise maximum of its leads' words; with exponents up to
    # 6 in both key layouts the same S-pairs must be reduced as with
    # exponent tuples (an lcm word taken as the bitwise or of the leads'
    # words changes the reduced pairs on 11 and 10 of these 40 ideals)
    merges = []
    real_merge = groebner.scaled_merge

    def counting(*args):
        merges.append(None)
        return real_merge(*args)

    monkeypatch.setattr(groebner, "scaled_merge", counting)
    for ring, gens in _drawn_ideals(order, 40, 5):
        vecs = [[(term_key(k, 0), c) for k, c in ring.from_dict(g).terms] for g in gens]
        merges.clear()
        ours = groebner._buchberger_terms(ring, (0,), vecs, product=True)
        ours_merges = len(merges)
        merges.clear()
        assert list(ours) == _moved(_reference_buchberger_terms(ring, (0,), vecs, True),
                                    None, 1), gens
        assert ours_merges == len(merges), gens


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_pairs_past_the_degree_cap_raise_only_when_they_survive(order, request):
    # the coprime pair x^200, y^100 has an lcm of degree 300 > 255, but the
    # product criterion drops it before any term of that degree is formed;
    # the single terms x^130*y and x*y^130 (lcm of degree 260) form no pair,
    # since its S-polynomial is 0 (this raised while such pairs were
    # formed); x^130*y + y^131 and x*y^130 survive and must raise; under
    # the kernel the run starts with, then under the compiled one
    ring = PolyRing(32003, ("x", "y"), order)
    for fixture in (None, "compiled_kernel"):
        if fixture:
            request.getfixturevalue(fixture)
        for gens in (["x^200", "y^100"], ["x^130*y", "x*y^130"]):
            gens = [ring.poly(g) for g in gens]
            assert set(Ideal(ring, gens).groebner_basis()) == set(gens)
        with pytest.raises(OverflowError, match="total degree 260 exceeds packing cap 255"):
            Ideal(ring, [ring.poly("x^130*y + y^131"), ring.poly("x*y^130")]).groebner_basis()


# ---------------------------------------------------------------------------
# the compiled engine against the Python one


def _assert_engines_agree(fast, ring, parts, basis_block=True):
    """The compiled engine against the pure branch of ``_buchberger_terms``
    on raw ``parts``: ``_fast.buchberger`` builds the unreduced basis of
    ``_buchberger_loop``, element for element, ``_fast.autoreduce``
    finishes it as ``_autoreduce`` does, and ``_buchberger_terms`` returns
    the same basis on both kernels, which is the one the ideal columns
    gave unless the known block is not a reduced basis (``basis_block``);
    or every run raises the same ``OverflowError``.  Returns the arguments
    of the loop and its unreduced basis, or None after an overflow."""
    ctx = ring.pack.ctx
    p = ring.field.p
    assert groebner.compiled_engine(p, ctx) == (fast.buchberger, fast.autoreduce)
    raw = (p, ctx.n, ctx.fb, *(parts[name] for name in (
        "twists", "vecs", "ideal", "marked", "sources", "known", "product", "upto")))
    try:
        want, args, G = _pure_run(ring, parts)
    except OverflowError as exc:
        for run in (lambda: fast.buchberger(*raw),
                    lambda: groebner._buchberger_terms(ring, **parts)):
            with pytest.raises(OverflowError, match=f"^{re.escape(str(exc))}$"):
                run()
        return None
    assert fast.buchberger(*raw) == G
    shift = 0 if parts["marked"] is None else len(parts["twists"])
    assert fast.autoreduce(p, ctx.n, ctx.fb, G, parts["ideal"], shift) == want
    assert groebner._buchberger_terms(ring, **parts) == want
    if basis_block:
        assert list(want) == _column_reference(ring, parts)
    return args, G


def test_compiled_loop_matches_the_python_loop_on_pool_modules(
        monkeypatch, compiled_kernel, mixed_corpus, veronese_doc, e2_doc,
        hypersurface_doc, stanley_reisner_doc):
    # every engine input of the relation bases and syzygies of the pool
    # modules, unbounded and bounded at every degree from below the lowest
    # degree of the basis to its top degree
    docs = list(mixed_corpus[:10]) + [veronese_doc, e2_doc, hypersurface_doc,
                                      stanley_reisner_doc]
    compared = strict = 0
    for label, ring, parts in _engine_inputs(monkeypatch, docs):
        (_, twists, *_), full = _assert_engines_agree(compiled_kernel, ring, parts)
        degrees = sorted({ring.pack.deg(term_okey(g[0][0])) + twists[term_pos(g[0][0])]
                          for g in full})
        for d in range(degrees[0] - 1, degrees[-1] + 1) if degrees else ():
            _, cut = _assert_engines_agree(compiled_kernel, ring, dict(parts, upto=d))
            strict += len(cut) < len(full)
        compared += 1
    assert compared == 78 and strict > 50, (compared, strict)


@pytest.mark.parametrize("n", [5, 6])
def test_compiled_loop_matches_on_thm8_of_rational_normal_curves(monkeypatch, compiled_kernel, n):
    calls = []
    real = groebner._buchberger_terms
    monkeypatch.setattr(groebner, "_buchberger_terms", _recorder(calls))
    assert check_thm8(rational_normal_curve(n)).verdict == "verified"
    monkeypatch.setattr(groebner, "_buchberger_terms", real)
    # two cycles eliminations start from a held relation basis; one of them
    # copies a module whose relations all lie in I * F, so its block is
    # empty over R (over Q it held the ideal columns)
    assert len(calls) > 10 and sum(bool(parts["known"]) for _, parts in calls) == 1
    # subquotient relations mark the numerator and carry the denominators
    assert any(parts["vecs"] and parts["marked"] for _, parts in calls)
    for ring, parts in calls:
        _assert_engines_agree(compiled_kernel, ring, parts)


def _random_homogeneous(rng, ring, twists, d):
    """A random homogeneous vector of degree ``d`` (possibly zero)."""
    p = ring.field.p
    terms = {}
    for pos, t in enumerate(twists):
        if d >= t and rng.random() < 0.7:
            for _ in range(rng.randint(1, 3)):
                okey = ring.pack.okey(exps_of_degree(rng, ring.n, d - t))
                terms[term_key(okey, pos)] = rng.randrange(1, p)
    return sorted(terms.items(), reverse=True)


def _random_engine_inputs(seed, count):
    """Rings and raw parts of engine runs over random grevlex rings in 3 to
    6 variables: ideals under the product criterion, some of degree near
    the cap of six variables, and eliminations of random module elements,
    each marked with its lead degree as its source twist."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(3, 6)
        ring = PolyRing(rng.choice((2, 101, 32003, 2147483647)), tuple(f"x{i}" for i in range(n)))
        if t % 2 == 0:
            lo = 40 if n == 6 else 2
            vecs = [_random_homogeneous(rng, ring, (0,), rng.randint(lo, lo + 2))
                    for _ in range(rng.randint(2, 4))]
            yield ring, _parts(twists=(0,), vecs=vecs, product=True)
        else:
            twists = [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]
            vectors = [_random_homogeneous(rng, ring, twists, rng.randint(1, 3))
                       for _ in range(rng.randint(2, 4))]
            src = [ring.pack.deg(term_okey(v[0][0])) + twists[term_pos(v[0][0])] if v else 0
                   for v in vectors]
            yield ring, _parts(twists=tuple(twists), vecs=(), marked=vectors, sources=src)


def test_compiled_loop_matches_on_random_grevlex_inputs(compiled_kernel):
    seen = {"overflow": 0, "bounded cut": 0, "eliminations": 0}
    rng = random.Random(7)
    for ring, parts in _random_engine_inputs(31, 120):
        agreed = _assert_engines_agree(compiled_kernel, ring, parts)
        if agreed is None:
            seen["overflow"] += 1
            continue
        seen["eliminations"] += parts["marked"] is not None
        upto = rng.randint(0, 6)
        _, cut = _assert_engines_agree(compiled_kernel, ring, dict(parts, upto=upto))
        seen["bounded cut"] += len(cut) < len(agreed[1])
    assert min(seen.values()) >= 3, seen
    with pytest.raises(OverflowError, match="^total degree 260 exceeds packing cap 255$"):
        Ideal(PolyRing(32003, ("x", "y")), ["x^130*y + y^131", "x*y^130"]).groebner_basis()


# ---------------------------------------------------------------------------
# eliminations that start from a known reduced block


def _known_block_inputs(monkeypatch):
    """Rings and raw parts, as ``_engine_inputs`` records them, of the cycles
    elimination of every ``_homology`` call of the pool documents started
    from its known block: the relation basis of the copies, after the copied
    module's own basis is computed where it was not held
    (``cycles_elimination``).  Each runs unbounded with the ring's memo
    emptied."""
    inputs = []
    real = groebner._buchberger_terms
    recording = _recorder(inputs)
    for d, M, _, _ in homology_calls(monkeypatch):
        cols, Y, X, _, block = cycles_elimination(d, M)
        Y.base.cache.pop("syzygy_generators", None)
        monkeypatch.setattr(groebner, "_buchberger_terms", recording)
        syzygy_generators(cols, Y, X, known=block)
        monkeypatch.setattr(groebner, "_buchberger_terms", real)
        parts = inputs[-1][1]
        assert (len(parts["known"]), len(parts["marked"]), parts["vecs"]) == (
            len(block), len(cols), ())
    return inputs


def test_known_block_runs_match_the_full_scan_and_cut_by_degree(monkeypatch):
    # the known block enters unreduced and none of its pairs, nor any of
    # its pairs with the ideal, is formed: the marker block must be the
    # reference's, which skips the same pairs, after reducing as many
    # S-polynomials, it must be the one the ideal columns gave, and a run
    # bounded by d must return the degree <= d part of it
    merges = []
    real_merge = groebner.scaled_merge

    def counting(*args):
        merges.append(None)
        return real_merge(*args)

    inputs = _known_block_inputs(monkeypatch)
    monkeypatch.setattr(groebner, "scaled_merge", counting)
    strict = 0
    for ring, parts in inputs:
        merges.clear()
        ours, args, _ = _pure_run(ring, parts)
        ours_merges = len(merges)
        _, twists, vecs, ideal, product, below, _, known = args
        # the block, then one marked input per column
        assert len(vecs) == known + len(parts["marked"])
        merges.clear()
        ref = _reference_buchberger_terms(ring, twists, vecs, product, known, ideal)
        assert list(ours) == _moved(ref, below, len(parts["twists"]))
        assert ours_merges == len(merges)
        assert list(ours) == _column_reference(ring, parts)
        strict += _assert_bounded_runs_cut_the_full_basis(args, "known block")
    # 22 of the copied modules have all their relations in I * F, so their
    # block is empty over R
    assert len(inputs) == 157 and sum(bool(parts["known"]) for _, parts in inputs) == 135
    assert strict > 0


def test_compiled_loop_matches_with_a_known_block_on_homology_eliminations(
        monkeypatch, compiled_kernel):
    # every cycles elimination of _homology on the pool documents, started
    # from its known block, unbounded and through degree 0 (iso_probe's Hom)
    compared = 0
    for ring, parts in _known_block_inputs(monkeypatch):
        for upto in (None, 0):
            _assert_engines_agree(compiled_kernel, ring, dict(parts, upto=upto))
        compared += bool(parts["known"])
    assert compared == 135


def _random_known_block_inputs(seed, count):
    """``_random_engine_inputs`` with a known block first: some of the
    inputs (an elimination's marked vectors), as they are and as their
    reduced basis, which all the inputs then follow.  Yields the ring, the
    raw parts and whether the block is a reduced basis."""
    rng = random.Random(seed)
    for ring, parts in _random_engine_inputs(seed, count):
        pool = parts["vecs"] if parts["marked"] is None else parts["marked"]
        some = rng.sample(pool, rng.randint(1, len(pool)))
        try:
            block = groebner._buchberger_terms(ring, parts["twists"], some,
                                               product=parts["product"])
        except OverflowError:
            continue
        yield ring, dict(parts, known=block), True
        yield ring, dict(parts, known=some), False


def test_compiled_loop_matches_with_a_known_block_on_random_grevlex_inputs(compiled_kernel):
    # a block that is not a basis, on which skipping its pairs loses
    # elements, shows that both loops skip the same pairs
    seen = {"overflow": 0, "bounded cut": 0, "eliminations": 0, "pairs lost": 0}
    rng = random.Random(11)
    for ring, parts, reduced in _random_known_block_inputs(37, 120):
        agreed = _assert_engines_agree(compiled_kernel, ring, parts)
        if agreed is None:
            seen["overflow"] += 1
            continue
        seen["eliminations"] += parts["marked"] is not None
        upto = rng.randint(0, 6)
        _, cut = _assert_engines_agree(compiled_kernel, ring, dict(parts, upto=upto))
        seen["bounded cut"] += len(cut) < len(agreed[1])
        # a known reduced block changes the work, never the reduced basis,
        # which the block entering as unmarked columns gives too
        got = groebner._buchberger_terms(ring, **parts)
        want = groebner._buchberger_terms(
            ring, **dict(parts, known=(), vecs=(*parts["known"], *parts["vecs"])))
        assert got == want or not reduced
        seen["pairs lost"] += got != want
    assert min(seen.values()) >= 3, seen


# ---------------------------------------------------------------------------
# reduction modulo the ideal inside the reducers


def test_basis_over_a_quotient_ring_has_no_element_the_ideal_gives():
    # over GF(32003)[x,y]/(x^2-xy) the reduced basis over Q of (y) + I is
    # (x^2, y); x^2's lead lies in in(I), and its projection modulo I, xy,
    # is a redundant element of a basis over R
    ring = PolyRing(32003, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2-x*y")])
    F = GradedFreeModule(R, [0])
    assert buchberger([F.vector_from_polys([R.poly("y")])], F).gb == (
        tuple(F.vector_from_polys([R.poly("y")])),)


def _random_quotient_inputs(seed, count, order="grevlex"):
    """Rings and raw parts of engine runs over random quotients of rings in
    3 or 4 variables by 2 or 3 forms of degree 2 or 3: relation bases in
    rank 1 to 3 and eliminations of random module elements, some with
    unmarked columns, each marked with its lead degree as its source
    twist."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(3, 4)
        ring = PolyRing(rng.choice((2, 101, 32003)), tuple(f"x{i}" for i in range(n)), order)
        forms = [ring.from_dict(dict(
            (exps_of_degree(rng, n, d), rng.randrange(1, ring.field.p))
            for _ in range(rng.randint(1, 3))))
            for d in (rng.randint(2, 3) for _ in range(rng.randint(2, 3)))]
        ideal = QuotientRing(ring, forms).ideal_columns()
        twists = [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]
        vectors = [_random_homogeneous(rng, ring, twists, rng.randint(1, 3))
                   for _ in range(rng.randint(2, 4))]
        if t % 2 == 0:
            yield ring, _parts(twists=tuple(twists), vecs=vectors, ideal=ideal,
                               product=len(twists) == 1)
        else:
            src = [ring.pack.deg(term_okey(v[0][0])) + twists[term_pos(v[0][0])] if v else 0
                   for v in vectors]
            extra = [_random_homogeneous(rng, ring, twists, rng.randint(1, 2))
                     for _ in range(rng.randint(0, 2))]
            yield ring, _parts(twists=tuple(twists), vecs=[v for v in extra if v],
                               ideal=ideal, marked=vectors, sources=src)


def _ideal_pairs(ring, parts):
    """How many ideal pairs the pure loop pops on raw ``parts``."""
    popped = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner, "heapq", SimpleNamespace(
            heappush=heapq.heappush,
            heappop=lambda h: popped.append(heapq.heappop(h)) or popped[-1]))
        _pure_run(ring, parts)
    return sum(pair[1] < len(parts["ideal"]) for pair in popped)  # the ideal comes first


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_python_loop_with_an_ideal_matches_the_ideal_columns(monkeypatch, order):
    # the pure loop, which lex rings always take, on random quotient rings:
    # the full-scan reference reduces as many S-polynomials to the same
    # basis, which is the one the ideal columns gave, and a bounded run
    # cuts it by degree
    merges = []
    real_merge = groebner.scaled_merge

    def counting(*args):
        merges.append(None)
        return real_merge(*args)

    pairs = strict = 0
    for ring, parts in _random_quotient_inputs(41, 40, order):
        monkeypatch.setattr(groebner, "scaled_merge", counting)
        merges.clear()
        ours, args, _ = _pure_run(ring, parts)
        ours_merges = len(merges)
        _, twists, vecs, ideal, product, below, _, known = args
        merges.clear()
        ref = _reference_buchberger_terms(ring, twists, vecs, product, known, ideal)
        assert list(ours) == _moved(ref, below, len(parts["twists"]))
        assert ours_merges == len(merges)
        monkeypatch.setattr(groebner, "scaled_merge", real_merge)
        assert list(ours) == _column_reference(ring, parts)
        strict += _assert_bounded_runs_cut_the_full_basis(args, "random quotient")
        pairs += _ideal_pairs(ring, parts)
    assert pairs > 100 and strict > 0, (pairs, strict)


def test_compiled_loop_matches_with_an_ideal_on_random_grevlex_inputs(compiled_kernel):
    # ideal pairs, reductions by the ideal at every position and in both
    # blocks, and a known reduced block over R, on both kernels
    seen = {"bounded cut": 0, "eliminations": 0, "known": 0}
    rng = random.Random(13)
    for ring, parts in _random_quotient_inputs(43, 60):
        agreed = _assert_engines_agree(compiled_kernel, ring, parts)
        seen["eliminations"] += parts["marked"] is not None
        upto = rng.randint(0, 5)
        _, cut = _assert_engines_agree(compiled_kernel, ring, dict(parts, upto=upto))
        seen["bounded cut"] += len(cut) < len(agreed[1])
        pool = parts["vecs"] if parts["marked"] is None else parts["marked"]
        some = [v for v in rng.sample(pool, rng.randint(1, len(pool))) if v]
        block = groebner._buchberger_terms(ring, parts["twists"], some, parts["ideal"],
                                           product=parts["product"])
        if block:
            _assert_engines_agree(compiled_kernel, ring, dict(parts, known=block))
            seen["known"] += 1
    assert min(seen.values()) >= 3, seen


def test_single_term_pairs_are_never_pushed(compiled_kernel):
    # two monic single terms at one position (an ideal element stands at
    # every position) have S-polynomial 0: over a monomial ideal, with
    # single-term columns, the Python loop must push no such pair, while it
    # pushes the others, and the compiled loop must build its unreduced
    # basis; a relation basis and an elimination whose unmarked columns
    # are the single terms
    ring = PolyRing(32003, ("x", "y", "z"))
    R = QuotientRing(ring, ["x^2", "x*y", "y*z^2"])
    F = GradedFreeModule(R, [0, 1])
    terms = [F.vector_from_polys([ring.poly(a), ring.poly(b)])
             for a, b in (("y^2", "0"), ("z^2", "0"), ("y*z", "0"), ("0", "x"),
                          ("0", "y*z"), ("0", "z^2"), ("x*z^2", "0"))]
    binomials = [F.vector_from_polys([ring.poly(a), ring.poly(b)])
                 for a, b in (("x*z", "y"), ("y*z", "z"), ("z^3", "y^2"))]
    ideal = R.ideal_columns()
    mask = ring.pack.ctx.okey_mask

    def exps(k):
        return ring.pack.exps(term_okey(k) & mask)

    runs = (_parts(twists=F.twists, vecs=terms + binomials, ideal=ideal),
            _parts(twists=F.twists, vecs=terms, ideal=ideal, marked=binomials,
                   sources=[F.vector_degree(v) for v in binomials]))
    for parts in runs:
        _, (_, twists, vecs, _, product, _, upto, known), _ = _pure_run(ring, parts)
        pushed = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groebner, "heapq", SimpleNamespace(
                heappush=lambda h, pair: pushed.append(pair) or heapq.heappush(h, pair),
                heappop=heapq.heappop))
            # the whole basis, above an elimination's flag too
            G = list(ideal) + groebner._buchberger_loop(ring, twists, vecs, ideal, product,
                                                        None, upto, known)
        single = [len(g) == 1 for g in G]
        assert pushed and not any(single[i] and single[j] for _, i, j, *_ in pushed)
        # the pairs the rule leaves out: single terms at one position, or a
        # single term and an ideal lead it is not coprime to
        skipped = sum(single[i] and single[t] and (
            term_pos(G[i][0][0]) == term_pos(G[t][0][0]) if i >= len(ideal)
            else any(map(min, exps(G[i][0][0]), exps(G[t][0][0]))))
            for t in range(len(ideal), len(G)) for i in range(t))
        assert skipped >= 10, skipped
        _assert_engines_agree(compiled_kernel, ring, parts)
