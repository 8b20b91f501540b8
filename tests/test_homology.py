"""Hom, tensor, subquotients, homology at one term, and the isomorphism probe."""

import gc
import itertools
import math
import random

import pytest

from charmod import characteristic, corpus, linalg
from charmod import homology as homology_mod
from charmod.cmr import load
from charmod.freemod import GradedFreeModule, GradedMatrix, term_key, term_okey, term_pos
from charmod.groebner import QuotientRing, buchberger, syzygy_generators
from charmod.homology import (
    IsoProbeResult,
    ModuleMap,
    _grafted,
    _grid,
    _hom,
    _series,
    copy_shift,
    hilbert_function_basis,
    hom_cohomology,
    hom_express,
    hom_module,
    hom_realize,
    homology_at,
    iso_probe,
    module_basis,
    monomial_okeys,
    subquotient,
    subquotient_express,
    subquotient_realize,
    tensor_homology,
    tensor_module,
)
from charmod.invariants import hilbert_series_leads, q_resolution
from charmod.resolution import PresentedModule, resolve
from charmod.ring import PolyRing

from conftest import (
    FIXTURES,
    cokernel,
    cycles_elimination,
    cyclic_quotient,
    entries,
    hom_map,
    hom_on_cyclic_probes,
    homology_calls,
    is_injective,
    matrix_from_columns,
    presented_kernel,
    rational_normal_curve,
    reference_copies,
    reference_is_surjective,
    reference_nu,
    vector_coords,
)


@pytest.fixture(scope="module")
def rings():
    Q = PolyRing(101, ("x", "y"))
    R = QuotientRing(Q, [Q.poly("x^2"), Q.poly("x*y")])
    return Q, R


def test_monomial_counts():
    ring = PolyRing(101, ("x", "y", "z"))
    for d in range(6):
        assert len(monomial_okeys(ring, d)) == math.comb(d + 2, 2)
    assert monomial_okeys(ring, -1) == []


def test_monomial_okeys_match_a_brute_force_enumeration():
    for order in ("grevlex", "lex"):
        for n in range(1, 6):
            ring = PolyRing(101, [f"x{i}" for i in range(n)], order)
            for d in range(6):
                want = sorted((ring.pack.okey(e) for e in itertools.product(range(d + 1), repeat=n)
                               if sum(e) == d), reverse=True)
                assert monomial_okeys(ring, d) == want, (order, n, d)


def test_monomial_okeys_leave_nothing_for_the_cyclic_collector():
    ring = PolyRing(101, ("x", "y", "z", "w"))
    gc.collect()
    gc.disable()
    try:
        monomial_okeys(ring, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("method", ["minimal", "q_structure"])
def test_modules_that_are_their_own_answer_leave_nothing_for_the_cyclic_collector(method):
    # minimal() of a module with nothing to cancel and q_structure() over a
    # polynomial ring return the module itself, which its cache must not
    # hold, or only the cyclic collector frees it
    M = PresentedModule.free(PolyRing(101, ("x", "y")), [0, 1])
    gc.collect()
    gc.disable()
    try:
        assert getattr(M, method)() is M
        assert getattr(M, method)() is M
        del M
        assert gc.collect() == 0
    finally:
        gc.enable()


def _enumerated_hf(M, lo, hi):
    """Degreewise dimensions by enumerating standard monomial bases."""
    return [len(module_basis(M, d)) for d in range(lo, hi + 1)]


def test_module_basis_and_hilbert_function(rings):
    # the lead-term count and the enumerated bases give the same dimensions
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    assert hilbert_function_basis(Rm, 0, 5) == [1, 2, 1, 1, 1, 1]
    assert _enumerated_hf(Rm, 0, 5) == [1, 2, 1, 1, 1, 1]
    k = PresentedModule.residue_field(R)
    assert hilbert_function_basis(k, -2, 3) == [0, 0, 1, 0, 0, 0]
    assert _enumerated_hf(k, -2, 3) == [0, 0, 1, 0, 0, 0]


def test_hom_module_goldens(rings):
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    # Hom(R, M) recovers M
    assert hilbert_function_basis(hom_module(Rm, Rm), 0, 4) == [1, 2, 1, 1, 1]
    # Hom(k, R) is the socle: spanned by x in degree 1
    assert hilbert_function_basis(hom_module(k, Rm), 0, 4) == [0, 1, 0, 0, 0]
    # Hom(k, k) is k
    assert hilbert_function_basis(hom_module(k, k), 0, 2) == [1, 0, 0]


def test_tensor_module_goldens(rings):
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    assert hilbert_function_basis(tensor_module(k, k), 0, 3) == [1, 0, 0, 0]
    assert hilbert_function_basis(tensor_module(Rm, k), 0, 3) == [1, 0, 0, 0]
    mx = subquotient(buchberger([Rm.gens.vector_from_polys([R.poly("x")]),
                                 Rm.gens.vector_from_polys([R.poly("y")])], Rm.gens),
                     [])
    # k tensor m has a basis the minimal generators of m
    assert hilbert_function_basis(tensor_module(k, mx), 0, 3) == [0, 2, 0, 0]


def test_tensor_is_symmetric(rings):
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    ab = tensor_module(k, Rm)
    ba = tensor_module(Rm, k)
    assert hilbert_function_basis(ab, 0, 4) == hilbert_function_basis(ba, 0, 4)
    assert iso_probe(ab, ba).verdict == "probably_isomorphic"


def test_hom_realize_express_roundtrip(rings):
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    H = hom_module(Rm, Rm)
    basis0 = module_basis(H, 0)
    assert len(basis0) == 1
    v = [(basis0[0], 1)]
    mat = hom_realize(H, v)
    # the unique degree-0 endomorphism of R is a scalar: realize then express
    assert hom_express(H, mat.cols) == v
    assert ModuleMap(Rm, Rm, mat).is_isomorphism()


def test_subquotient_and_coordinates():
    Q = PolyRing(101, ("x", "y"))
    amb = GradedFreeModule(Q, (0,))
    num = [amb.vector_from_polys([Q.poly("x")]), amb.vector_from_polys([Q.poly("y")])]
    den = [amb.vector_from_polys([Q.poly(m)]) for m in ("x^2", "x*y", "y^2")]
    M = subquotient(buchberger(num, amb), den)
    assert hilbert_function_basis(M, 0, 3) == [0, 2, 0, 0]
    u = amb.vector_from_polys([Q.poly("3*x-5*y")])
    coords = subquotient_express(M, u)
    assert subquotient_realize(M, coords) == u
    with pytest.raises(ValueError):
        subquotient_express(M, amb.vector_from_polys([Q.poly("1")]))


def test_battery_subquotient_denominators_lie_in_their_numerators(monkeypatch):
    # subquotient does not check that its denominator lies in the numerator:
    # its caller, _homology, passes the copies' relations and the grafted
    # columns of the incoming map, which are cycles by construction; every
    # subquotient the battery builds on fresh pool documents (the first 10
    # acceptance instances and the four fixtures), with the Hom of every
    # cyclic probe pair built too, bears that out, in the degrees a bounded
    # one is built in
    seen = []
    real = homology_mod.subquotient

    def recording(numerator, denominator, upto=None):
        seen.append((numerator, denominator, upto))
        return real(numerator, denominator, upto)

    monkeypatch.setattr(homology_mod, "subquotient", recording)
    hom_on_cyclic_probes(monkeypatch)
    for doc in corpus.generate_corpus(7, 10, "mixed") + [
            load(FIXTURES / f"{name}.cmr")
            for name in ("veronese", "e2", "hypersurface", "stanley_reisner")]:
        corpus.corpus_battery(doc)
    monkeypatch.setattr(homology_mod, "subquotient", real)
    checked = 0
    for num, den, upto in seen:
        for v in den:
            if upto is None or num.ambient.vector_degree(v) <= upto:
                assert num.contains(list(v))
                checked += 1
    # (subquotients, denominators checked): (286, 680) while the bases over
    # a quotient ring kept the elements whose leads lie in in(I) * F
    assert (len(seen), checked) == (286, 678)


def test_module_map_kernel_cokernel(rings):
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    mx = matrix_from_columns(R, (0,), [[R.poly("x")]], col_twists=[1])
    f = ModuleMap(Rm.twist(1), Rm, mx)
    assert not is_injective(f) and not f.is_surjective()
    assert hilbert_function_basis(presented_kernel(f), 0, 4) == [0, 0, 2, 1, 1]
    # image of x is the socle, so the cokernel loses one dimension in degree 1
    assert hilbert_function_basis(cokernel(f), 0, 4) == [1, 1, 1, 1, 1]
    my = matrix_from_columns(R, (0,), [[R.poly("y")]], col_twists=[1])
    g = ModuleMap(Rm.twist(1), Rm, my)
    assert not is_injective(g)  # x*y = 0 in R


def test_multiplication_is_injective_over_domain():
    Q = PolyRing(101, ("x", "y"))
    Qm = PresentedModule.ring_module(Q)
    mx = matrix_from_columns(Q, (0,), [[Q.poly("x")]], col_twists=[1])
    f = ModuleMap(Qm.twist(1), Qm, mx)
    assert is_injective(f) and not f.is_surjective()
    assert hilbert_function_basis(cokernel(f), 0, 3) == [1, 1, 1, 1]


def test_tor_golden_over_polynomial_ring():
    Q = PolyRing(101, ("x", "y"))
    k = PresentedModule.residue_field(Q)
    K = resolve(k)
    tors = [homology_at(K.diff(i), K.diff(i + 1), k) for i in range(3)]
    dims = [sum(hilbert_function_basis(t, 0, 3)) for t in tors]
    assert dims == [1, 2, 1]
    # Tor_1(k, k) lives in degree 1, Tor_2 in degree 2
    assert hilbert_function_basis(tors[1], 0, 2) == [0, 2, 0]
    assert hilbert_function_basis(tors[2], 0, 2) == [0, 0, 1]
    with pytest.raises(ValueError):  # d_1 leaves F_1, and into = d_1 lands in F_0
        homology_at(K.diff(1), K.diff(1), k)


def test_ext_golden_over_polynomial_ring():
    Q = PolyRing(101, ("x", "y"))
    k = PresentedModule.residue_field(Q)
    K = resolve(k)
    Qm = PresentedModule.ring_module(Q)
    exts = [homology_at(K.diff(i + 1).transpose_dual(), K.diff(i).transpose_dual(), Qm)
            for i in range(3)]
    assert exts[0].is_zero()
    assert exts[1].is_zero()
    top = exts[2]
    # Ext^2(k, Q) is one-dimensional, generated in degree -2
    assert hilbert_function_basis(top, -3, 0) == [0, 1, 0, 0]


def test_iso_probe_verdicts(rings):
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    assert iso_probe(Rm, Rm).verdict == "probably_isomorphic"
    r = iso_probe(Rm, k)
    assert r.verdict == "certified_nonisomorphic"
    assert r.certificate["reason"] == "hilbert function differs"
    # zero modules compare equal
    z = PresentedModule.free(R, ())
    assert iso_probe(z, z).verdict == "probably_isomorphic"
    # same Hilbert function, different module structure: k + k(-1)-style pair
    Q = PolyRing(101, ("x", "y"))
    amb = GradedFreeModule(Q, (0,))
    mm = subquotient(buchberger([amb.vector_from_polys([Q.poly("x")]),
                                 amb.vector_from_polys([Q.poly("y")])], amb),
                     [amb.vector_from_polys([Q.poly(m)])
                      for m in ("x^2", "x*y", "y^2")])
    free2 = PresentedModule.free(Q, (1, 1))
    r2 = iso_probe(mm, free2)
    assert r2.verdict == "certified_nonisomorphic"


def test_iso_probe_detects_twist():
    Q = PolyRing(101, ("x", "y"))
    A = PresentedModule.free(Q, (0,))
    B = PresentedModule.free(Q, (1,))
    assert iso_probe(A, B).verdict == "certified_nonisomorphic"


# ---------------------------------------------------------------------------
# cross-checks on the module pairs the battery compares


@pytest.fixture(scope="module")
def battery_pairs(mixed_corpus, e2_doc, hypersurface_doc, stanley_reisner_doc,
                  veronese_doc):
    """(label, T_M, Hom(E, M), E_M, E (x) M) for every module of the battery
    pool, on the first 10 acceptance instances and the four fixtures."""
    docs = [(f"mixed-7-{i:03d}", doc) for i, doc in enumerate(mixed_corpus[:10])]
    docs += [("e2", e2_doc), ("hypersurface", hypersurface_doc),
             ("stanley_reisner", stanley_reisner_doc), ("veronese", veronese_doc)]
    out = []
    for label, doc in docs:
        for name, M in corpus.module_pool(doc):
            out.append((f"{label}/{name}", characteristic.char_module(M),
                        characteristic.char_via_hom(M),
                        characteristic.cochar_module(M),
                        characteristic.cochar_via_tensor(M)))
    return out


def test_hilbert_function_matches_enumeration(battery_pairs):
    for label, *mods in battery_pairs:
        lo, hi = corpus._window(*mods)
        for M in mods:
            assert _enumerated_hf(M, lo, hi) == hilbert_function_basis(M, lo, hi), label


def _reference_iso_probe(A, B, seed=0, trials=8):
    """iso_probe as first written: enumerated Hilbert functions, a fresh
    resolution for the Betti tables, and every trial map checked for
    bijectivity in every degree of the window."""
    p = A.ring.field.p
    Am, Bm = A.minimal(), B.minimal()
    if Am.gens.rank == 0 and Bm.gens.rank == 0:
        return IsoProbeResult("probably_isomorphic", {"reason": "both modules are zero"})
    twists = list(Am.gens.twists) + list(Bm.gens.twists)
    lo, hi = min(twists), max(twists) + 8
    hfA, hfB = _enumerated_hf(Am, lo, hi), _enumerated_hf(Bm, lo, hi)
    for off, (da, db) in enumerate(zip(hfA, hfB)):
        if da != db:
            return IsoProbeResult("certified_nonisomorphic", {
                "reason": "hilbert function differs",
                "degree": lo + off, "dims": [da, db]})
    bA = resolve(Am.q_structure()).betti().restrict(3)
    bB = resolve(Bm.q_structure()).betti().restrict(3)
    if bA != bB:
        return IsoProbeResult("certified_nonisomorphic", {
            "reason": "graded Betti numbers over the cover differ",
            "betti": [bA.rows(), bB.rows()]})
    H = hom_module(Am, Bm)
    basis0 = module_basis(H, 0)
    if not basis0:
        return IsoProbeResult("certified_nonisomorphic", {
            "reason": "no nonzero degree-0 homomorphisms"})
    rng = random.Random(seed)
    for trial in range(trials):
        coeffs = [rng.randrange(p) for _ in basis0]
        v = [(key, c) for key, c in zip(basis0, coeffs) if c]
        if not v:
            continue
        mat = hom_realize(H, sorted(v, reverse=True))
        ok = True
        for d in range(lo, hi + 1):
            basA, basB = module_basis(Am, d), module_basis(Bm, d)
            index = {k: t for t, k in enumerate(basB)}
            rows = [vector_coords(Bm, mat.apply([(key, 1)]), index) for key in basA]
            if len(basA) != len(basB) or linalg.rank(rows, p) != len(basA):
                ok = False
                break
        if ok:
            return IsoProbeResult("probably_isomorphic", {
                "reason": "random degree-0 map bijective in all checked degrees",
                "seed": seed, "trial": trial, "degree_range": [lo, hi]})
    return IsoProbeResult("inconclusive", {
        "reason": "invariants agree but no sampled map was bijective",
        "trials": trials, "degree_range": [lo, hi]})


# iso_probe trial loops on the battery pairs: on two cyclic modules, and
# on the other pairs, which build Hom through degree 0
CYCLIC_PROBES = 57
GENERAL_PROBES = 20


def _count_probe_branches(monkeypatch):
    """Lists that grow by one per ``iso_probe`` trial loop on two cyclic
    modules (read off their relation bases) and on any other pair (through
    ``_hom(..., upto=0)``)."""
    cyclic, general = [], []
    real_trial, real_hom = homology_mod._winning_trial, homology_mod._hom

    def trial(Am, Bm, size, realize, seed):
        if Am.gens.rank == 1 and Am.gens == Bm.gens:
            cyclic.append(None)
        return real_trial(Am, Bm, size, realize, seed)

    def hom(A, B, upto=None):
        if upto == 0:
            general.append(None)
        return real_hom(A, B, upto)

    monkeypatch.setattr(homology_mod, "_winning_trial", trial)
    monkeypatch.setattr(homology_mod, "_hom", hom)
    return cyclic, general


def test_iso_probe_matches_all_degree_reference(battery_pairs, monkeypatch):
    # rank checks in the generator degrees of B decide as the full window
    # does, on the cyclic pairs read off their relation bases as on the
    # pairs whose Hom is built through degree 0
    verdicts = set()
    cyclic, general = _count_probe_branches(monkeypatch)
    for label, TM, HM, EM, XM in battery_pairs:
        for A, B in ((TM, HM), (EM, XM)):
            got = iso_probe(A, B)
            want = _reference_iso_probe(A, B)
            assert (got.verdict, got.certificate) == (want.verdict, want.certificate), label
            verdicts.add(got.verdict)
    assert "probably_isomorphic" in verdicts
    assert (len(cyclic), len(general)) == (CYCLIC_PROBES, GENERAL_PROBES)


def _gf2_pairs():
    """Module pairs over GF(2)[x,y]/(x^2, xy), where most sampled degree-0
    maps are singular."""
    Q = PolyRing(2, ("x", "y"))
    R = QuotientRing(Q, [Q.poly("x^2"), Q.poly("x*y")])
    k = PresentedModule.residue_field(R)
    mods = [PresentedModule.free(R, (0, 0)), PresentedModule.free(R, (0, 1)),
            tensor_module(PresentedModule.free(R, (0, 1)), k),
            PresentedModule.free(R, (0, 0, 1))]
    return [(M, M) for M in mods] + [(mods[0], mods[1]), (mods[1], mods[2])]


def test_iso_probe_matches_reference_when_trials_fail():
    # over GF(2) most sampled maps are singular: later trials win, or none does
    outcomes = set()
    for A, B in _gf2_pairs():
        for seed in range(8):
            got = iso_probe(A, B, seed=seed)
            want = _reference_iso_probe(A, B, seed=seed)
            assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
            outcomes.add((got.verdict, got.certificate.get("trial", 0) > 0))
    assert {("inconclusive", False), ("probably_isomorphic", True),
            ("certified_nonisomorphic", False)} <= outcomes


def test_iso_probe_matches_reference_when_series_differ_past_the_window():
    # Q and Q/(x^9) have equal Hilbert functions on the window [0, 8] and an
    # onto degree-0 map, yet differ in degree 9: only the Betti tables tell
    # them apart, so the trial maps must not run first
    Q = PolyRing(101, ("x", "y"))
    free = PresentedModule.free(Q, (0,))
    cyclic = cyclic_quotient(Q, [Q.poly("x^9")])
    for shift in (0, -3):
        A, B = free.twist(shift), cyclic.twist(shift)
        assert hilbert_function_basis(A, shift, shift + 8) == \
            hilbert_function_basis(B, shift, shift + 8)
        got, want = iso_probe(A, B), _reference_iso_probe(A, B)
        assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
        assert got.certificate["reason"] == "graded Betti numbers over the cover differ"


def test_iso_probe_certifies_no_degree_zero_homomorphism():
    # Q/(x) and Q/(y) share Hilbert series and Betti tables, and Hom between
    # them is zero in degree 0: the Hom built only through degree 0 must say so
    Q = PolyRing(101, ("x", "y"))
    A, B = cyclic_quotient(Q, [Q.poly("x")]), cyclic_quotient(Q, [Q.poly("y")])
    for shift in (0, -2):
        As, Bs = A.twist(shift), B.twist(shift)
        got, want = iso_probe(As, Bs), _reference_iso_probe(As, Bs)
        assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
        assert (got.verdict, got.certificate) == (
            "certified_nonisomorphic", {"reason": "no nonzero degree-0 homomorphisms"})


def _cyclic_pairs():
    """Pairs of cyclic modules with equal relation bases over GF(2) and
    GF(3), given by different presentations: other generators of one
    ideal, a redundant relation, a second generator that a scalar relation
    cancels, and twists."""
    out = []
    for p in (2, 3):
        Q = PolyRing(p, ("x", "y"))
        R = QuotientRing(Q, [Q.poly("x^2"), Q.poly("x*y")])
        for base in (Q, R):
            A = cyclic_quotient(base, [base.poly("x^2-y^2"), base.poly("x*y")])
            B = cyclic_quotient(base, [base.poly("x^2+x*y-y^2"), base.poly("x*y"),
                                       base.poly("y^3")])
            rels = matrix_from_columns(base, [0, 0], [[base.poly("1"), base.poly("-1")],
                                                      [base.poly("y^2"), base.poly("0")]])
            C = PresentedModule(rels.target, rels)
            out += [(A, B), (B.twist(2), A.twist(2)),
                    (C, cyclic_quotient(base, [base.poly("y^2")])),
                    (PresentedModule.ring_module(base),) * 2]
    return out


def test_iso_probe_on_cyclic_modules_matches_reference(monkeypatch):
    # the probe reads Hom in degree 0 off the relation bases: c * identity,
    # drawn as the general branch draws the coefficient of its one basis
    # element, so over GF(2) and GF(3) later trials win, as in the reference
    cyclic, general = _count_probe_branches(monkeypatch)
    later = 0
    for A, B in _cyclic_pairs():
        assert A.minimal().gens.rank == B.minimal().gens.rank == 1
        for seed in range(8):
            got = iso_probe(A, B, seed=seed)
            want = _reference_iso_probe(A, B, seed=seed)
            assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
            assert got.verdict == "probably_isomorphic"
            later += got.certificate["trial"] > 0
    assert later > 0
    assert len(cyclic) == 8 * len(_cyclic_pairs()) and not general


def test_iso_probe_on_cyclic_modules_is_inconclusive_when_every_draw_is_zero():
    # over GF(2), seed 15 draws 0 in all eight trials (the first such seed):
    # no map is tried, as in the reference, which builds the full Hom
    seed = 15
    rng = random.Random(seed)
    assert not any(rng.randrange(2) for _ in range(8))
    for A, B in _cyclic_pairs()[:4]:
        got = iso_probe(A, B, seed=seed)
        want = _reference_iso_probe(A, B, seed=seed)
        assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
        assert got.verdict == "inconclusive"


def test_iso_probe_on_cyclic_modules_with_different_ideals_over_a_quotient():
    # over R = Q/(z^2), R/(x) and R/(y) (and R/(x^2, xz) and R/(y^2, yz))
    # have equal Hilbert series and Betti tables over Q, and their
    # relation bases differ: Hom is zero in degree 0, as the full Hom says
    Q = PolyRing(101, ("x", "y", "z"))
    R = QuotientRing(Q, [Q.poly("z^2")])
    pairs = [(["x"], ["y"]), (["x^2", "x*z"], ["y^2", "y*z"])]
    for a, b in pairs:
        A = cyclic_quotient(R, [R.poly(f) for f in a])
        B = cyclic_quotient(R, [R.poly(f) for f in b])
        assert hilbert_series_leads(A) == hilbert_series_leads(B)
        for shift in (0, 3):
            As, Bs = A.twist(shift), B.twist(shift)
            got, want = iso_probe(As, Bs), _reference_iso_probe(As, Bs)
            assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
            assert got.certificate == {"reason": "no nonzero degree-0 homomorphisms"}


def test_degree_zero_hom_matches_the_full_hom(battery_pairs):
    # iso_probe builds Hom(A, B) only through degree 0; there it must have
    # the full Hom's degree-0 basis, key by key in the same order, so the
    # same random coefficients realize the same maps
    pairs = [(label, A, B) for label, TM, HM, EM, XM in battery_pairs
             for A, B in ((TM, HM), (EM, XM))]
    # Hom out of a free module has no cycle elimination, only unit cycles,
    # one of degree 1 here; a free summand of A gives zero columns in Hom's
    # elimination, and Q (+) Q/(x)(-1) as B gives one of source twist 1
    Q = PolyRing(101, ("x", "y"))
    free = PresentedModule.free(Q, (0, 1))

    def summand(twists):
        rels = matrix_from_columns(Q, twists, [[Q.poly("0"), Q.poly("x")]])
        return PresentedModule(rels.target, rels)

    pairs += [("free", free, free), ("free summand", summand([0, 0]), summand([0, 1]))]
    bounded = 0
    for label, A, B in pairs:
        Am, Bm = A.minimal(), B.minimal()
        H, H0 = hom_module(Am, Bm), _hom(Am, Bm, upto=0)
        assert all(t <= 0 for t in H0.gens.twists), label
        assert all(t <= 0 for t in H0.rels.source.twists), label
        basis, basis0 = module_basis(H, 0), module_basis(H0, 0)
        assert len(basis) == len(basis0), label
        for key, key0 in zip(basis, basis0):
            assert hom_realize(H, [(key, 1)]) == hom_realize(H0, [(key0, 1)]), label
        bounded += H0.gens.rank < H.gens.rank and bool(basis0)
    assert bounded > 0


def test_nu_and_trial_maps_match_unit_cancellation(battery_pairs, monkeypatch):
    # graded Nakayama counts what cancelling units leaves, on every module
    # the battery compares and on the cokernel of every trial map its
    # probes build, and of the mostly singular ones over GF(2); each trial
    # map sends relations into relations
    trials = []
    real = ModuleMap.is_surjective

    def recording(f):
        trials.append(f)
        return real(f)

    monkeypatch.setattr(ModuleMap, "is_surjective", recording)
    for label, TM, HM, EM, XM in battery_pairs:
        for M in (TM, HM, EM, XM):
            assert M.nu() == reference_nu(M), label
        iso_probe(TM, HM)
        iso_probe(EM, XM)
    battery_trials = len(trials)
    for A, B in _gf2_pairs():
        for seed in range(8):
            iso_probe(A, B, seed=seed)
    monkeypatch.undo()
    outcomes = set()
    for f in trials:
        ModuleMap(f.domain, f.codomain, f.matrix)
        C = cokernel(f)
        assert C.nu() == reference_nu(C)
        onto = f.is_surjective()
        assert onto == reference_is_surjective(f)
        outcomes.add(onto)
    assert battery_trials >= len(battery_pairs) and outcomes == {True, False}


# ---------------------------------------------------------------------------
# Hom, tensor and kernels built from A's presentation, against the grids
# they replaced


def _reference_grid(base, outer_twists, inner_twists, sign):
    return GradedFreeModule(base, [b + sign * a for a in outer_twists
                                   for b in inner_twists])


def _reference_copy_rels(outer_twists, M):
    """Relations of the copies M(t), one per outer twist t: (columns,
    twists) on the grid."""
    rM = M.gens.rank
    cols, twists = [], []
    for a, t in enumerate(outer_twists):
        for c, tw in zip(M.rels.cols, M.rels.source.twists):
            cols.append(sorted(((term_key(term_okey(k), a * rM + term_pos(k)), cc)
                                for k, cc in c), reverse=True))
            twists.append(tw + t)
    return cols, twists


def _reference_tensor_module(A, B):
    """A (x) B as first written: A's relations grafted onto every generator
    of B, then the copies of B's relations."""
    base = A.base
    rB = B.gens.rank
    gens = _reference_grid(base, A.gens.twists, B.gens.twists, +1)
    cols, twists = [], []
    for c, tw in zip(A.rels.cols, A.rels.source.twists):
        for j in range(rB):
            cols.append(sorted(((term_key(term_okey(k), term_pos(k) * rB + j), cc)
                                for k, cc in c), reverse=True))
            twists.append(tw + B.gens.twists[j])
    copy_cols, copy_twists = _reference_copy_rels(A.gens.twists, B)
    src = GradedFreeModule(base, twists + copy_twists)
    return PresentedModule(gens, GradedMatrix(src, gens, cols + copy_cols))


def _reference_hom_module(A, B):
    """Hom(A, B) as first written: the maps phi with phi o a in the
    relations of B, modulo (relations of B) o (arbitrary maps)."""
    base = A.base
    rA, rB = A.gens.rank, B.gens.rank
    sA, sB = A.rels.source.rank, B.rels.source.rank
    H = _reference_grid(base, A.gens.twists, B.gens.twists, -1)
    Hp = _reference_grid(base, A.rels.source.twists, B.gens.twists, -1)
    a_ent = entries(A.rels) if rA else []
    b_ent = entries(B.rels) if rB else []

    def b_copy(i, m):
        return sorted(((term_key(okey, i * rB + j), c)
                       for j in range(rB) for okey, c in b_ent[j][m].terms), reverse=True)

    l_cols = [sorted(((term_key(okey, l * rB + j), c)
                      for l in range(sA) for okey, c in a_ent[i][l].terms), reverse=True)
              for i in range(rA) for j in range(rB)]
    unmarked = [col for l in range(sA) for m in range(sB) if (col := b_copy(l, m))]
    num = syzygy_generators(l_cols, Hp, H, extra_unmarked=unmarked).gb if sA else \
        [H.basis_vector(t) for t in range(rA * rB)]
    den = [col for i in range(rA) for m in range(sB) if (col := b_copy(i, m))]
    return subquotient(buchberger([list(v) for v in num] + den, H), den)


def _assert_same_subquotient(got, want, label):
    """Same presentation as the reference, whose numerator basis comes from
    ``buchberger`` on the cycles and the boundaries; the relation basis that
    ``subquotient`` seeds from its elimination is the one ``buchberger``
    gives on the relation columns."""
    assert (got.gens, got.rels) == (want.gens, want.rels), label
    num, ref = got.cache["origin"]["numerator"], want.cache["origin"]["numerator"]
    assert (num.ambient, num.gb) == (ref.ambient, ref.gb), label
    rel_gb = buchberger([list(c) for c in got.rels.cols], got.gens)
    assert got.relation_gb() is got.cache["relation_gb"], label
    assert got.relation_gb().gb == rel_gb.gb, label


def _assert_matches_grid(A, B, T, H, label):
    """T = A (x) B and H = Hom(A, B) agree with the grid constructions."""
    _assert_same_subquotient(H, _reference_hom_module(A, B), label)
    want = _reference_tensor_module(A, B)
    assert (T.gens, T.rels) == (want.gens, want.rels), label


@pytest.fixture(scope="module")
def pool_docs(mixed_corpus, e2_doc, hypersurface_doc, stanley_reisner_doc, veronese_doc):
    """The first 10 acceptance instances and the four fixtures."""
    return tuple(mixed_corpus[:10]) + (e2_doc, hypersurface_doc, stanley_reisner_doc,
                                       veronese_doc)


def test_constructions_match_grid_reference(pool_docs):
    # on every battery pool module M, the routes E (x) - and Hom(E, -) at M,
    # E (x) M and Hom(E, M)
    checked = 0
    for doc in pool_docs:
        E = characteristic.quasi_canonical(doc.quotient()).E
        for name, M in corpus.module_pool(doc):
            for B in (M, characteristic.cochar_via_tensor(M),
                      characteristic.char_via_hom(M)):
                _assert_matches_grid(E, B, characteristic.cochar_via_tensor(B),
                                     characteristic.char_via_hom(B), name)
            checked += 1
    assert checked == 39


def test_copies_relation_basis_is_buchberger_on_the_copies_columns(monkeypatch):
    # the relation basis of a direct sum of copies, M's own moved by
    # copy_shift, equals the one buchberger gives on the copies' columns,
    # element for element, for the grid d.target (x) M of every _homology
    # call of the pool documents; the grid and its copy-shifted relations
    # are those of the copies built by position arithmetic
    checked = 0
    for d, M, _, _ in homology_calls(monkeypatch):
        _, Y, _, rels, block = cycles_elimination(d, M)
        C = reference_copies(d.target.twists, M)
        assert (Y, rels) == (C.gens, C.rels.cols)
        assert tuple(block) == buchberger([list(c) for c in C.rels.cols], C.gens).gb
        checked += 1
    assert checked == 157


def test_known_block_elimination_equals_the_raw_columns(monkeypatch):
    # the cycles elimination of every _homology call of the pool documents,
    # at the call's own degree bound, gives the same syzygy basis when it
    # starts from the copies' relation basis as from their relation columns
    checked = bounded = 0
    for d, M, _, upto in homology_calls(monkeypatch):
        cols, Y, X, rels, block = cycles_elimination(d, M)
        Y.base.cache.pop("syzygy_generators", None)
        raw = syzygy_generators(cols, Y, X, extra_unmarked=rels, upto=upto)
        got = syzygy_generators(cols, Y, X, upto=upto, known=block)
        assert (got.ambient, got.gb) == (raw.ambient, raw.gb)
        checked += 1
        bounded += upto is not None
    assert (checked, bounded) == (157, 61)


def test_koszul_homology_at_every_position(pool_docs):
    # with K the resolution of k over Q and M a pool module over Q:
    # Tor_i(k, M) from the maps d_i (x) M and d_{i+1} (x) M has beta_i(M)
    # generators, and Ext^i(k, M) from Hom(d_{i+1}, M) and Hom(d_i, M) has
    # beta_{n-i}(M) (Koszul self-duality), at every position 0 <= i <= n;
    # tensor_homology and hom_cohomology give the same presentations
    checked = 0
    for doc in pool_docs:
        Q = doc.quotient().cover
        n = Q.n
        K = resolve(PresentedModule.residue_field(Q))
        for name, M in corpus.module_pool(doc):
            betti = q_resolution(M)
            Mq = M.q_structure()
            tors, exts = [], []
            for i in range(n + 1):
                tor = homology_at(K.diff(i), K.diff(i + 1), Mq)
                ext = homology_at(K.diff(i + 1).transpose_dual(), K.diff(i).transpose_dual(),
                                  Mq)
                assert tor.nu() == betti.module(i).rank, (name, i)
                assert ext.nu() == betti.module(n - i).rank, (name, i)
                tors.append(tor)
                exts.append(ext)
            assert tensor_homology(K, Mq, 0, n) == tors, name
            assert hom_cohomology(K, Mq, 0, n) == exts, name
            # a run with nonzero terms past both of its ends
            assert tensor_homology(K, Mq, 1, n - 1) == tors[1:n], name
            assert hom_cohomology(K, Mq, 1, n - 1) == exts[1:n], name
            # empty runs, as gdim_bounded asks for on a truncated resolution
            assert tensor_homology(K, Mq, 1, 0) == tensor_homology(K, Mq, 2, 0) == []
            assert hom_cohomology(K, Mq, 1, 0) == hom_cohomology(K, Mq, 2, 0) == []
            checked += 1
    assert checked == 39


def test_hom_map_is_tensor_with_the_dual(pool_docs):
    # Hom(d, M) built directly equals d.transpose_dual() (x) M by value: the
    # grafted columns, and on both sides the grid and the copy-shifted
    # relations, for every differential of the cover resolution of each pool
    # module M (the zero ones at both ends included) and for M's own
    # presentation matrix; transposing twice gives d back
    checked = 0
    for doc in pool_docs:
        for name, M in corpus.module_pool(doc):
            F = q_resolution(M)
            for d in [F.diff(i) for i in range(F.length + 2)] + [M.rels]:
                dual = d.transpose_dual()
                assert dual.transpose_dual() == d, name
                want = hom_map(d, M)
                assert _grafted(dual, M) == want.matrix.cols, name
                for free, side in ((dual.source, want.domain), (dual.target, want.codomain)):
                    assert _grid(free.twists, M) == side.gens, name
                    assert copy_shift(M.rels.cols, free.rank, M.gens.rank) == side.rels.cols, name
            checked += 1
    assert checked == 39


def test_constructions_match_grid_reference_without_relations(rings):
    _, R = rings
    free = PresentedModule.free(R, (0, 1))
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    for A, B in ((free, free), (free, k), (k, free), (Rm, Rm)):
        _assert_matches_grid(A, B, tensor_module(A, B), hom_module(A, B), (A, B))


def test_tensor_with_the_ring_is_the_module_itself(pool_docs):
    # the grid presentation of A (x) R equals A by value, so A itself is
    # returned and E (x) R shares E's cached bases and routes
    checked = 0
    for doc in pool_docs:
        R = doc.quotient()
        Rm = PresentedModule.ring_module(R)
        E = characteristic.quasi_canonical(R).E
        for A in [E] + [M for _, M in corpus.module_pool(doc)]:
            assert tensor_module(A, Rm) is A
            assert _reference_tensor_module(A, Rm) == A
            checked += 1
    assert checked == 14 + 39


def test_is_isomorphism_matches_kernel_reference(pool_docs, rings):
    # onto with equal Hilbert series decides as onto with a zero kernel does,
    # and onto by the cokernel's scalar rank as by cancelling its units, on
    # the natural maps alpha_M and beta_M of every battery pool module and
    # on a map that is not onto
    maps = []
    for doc in pool_docs:
        for name, M in corpus.module_pool(doc):
            maps += [(name, characteristic.alpha_map(M)), (name, characteristic.beta_map(M))]
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    mx = matrix_from_columns(R, (0,), [[R.poly("x")]], col_twists=[1])
    maps.append(("x", ModuleMap(Rm.twist(1), Rm, mx)))
    outcomes = set()
    for name, f in maps:
        onto, iso = f.is_surjective(), f.is_isomorphism()
        assert onto == reference_is_surjective(f), name
        assert iso == (onto and is_injective(f)), name
        outcomes.add((onto, iso))
    # isomorphisms, onto maps with a kernel, and a map that is not onto
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_tensor_series_from_minimal_factor_matches_full_grid(pool_docs):
    # the series _series reads off E (x) H.minimal() is the one the full
    # grid presentation of E (x) H has, for H = Hom(E, M) on E and every
    # pool module M, and on the 5- and 6-variable rational normal curves,
    # where Hom(E, E) minimizes to R and E (x) H.minimal() is E itself
    inputs = []
    for doc in pool_docs:
        R = doc.quotient()
        inputs.append((characteristic.quasi_canonical(R).E, "E"))
        inputs += [(M, name) for name, M in corpus.module_pool(doc)]
    for n in (5, 6):
        inputs.append((characteristic.quasi_canonical(rational_normal_curve(n)).E, n))
    shrunk = set()
    for M, name in inputs:
        E = characteristic.quasi_canonical(M.base).E
        H = characteristic.char_via_hom(M)
        T = characteristic.cochar_via_tensor(H)
        full = hilbert_series_leads(_reference_tensor_module(E, H))
        assert _series(T) == full, name
        if H.minimal() is not H:
            shrunk.add(name)
    assert len(inputs) == 14 + 39 + 2
    # both branches run: the minimal factor and the fallback on a minimal H
    assert {5, 6} <= shrunk and len(shrunk) < len(inputs)


def test_beta_at_E_builds_no_relation_basis_of_its_domain():
    # a work gate: beta_E's domain E (x) Hom(E, E) is decided through
    # E (x) Hom(E, E).minimal(), which is E on the curve, so the grid
    # presentation itself never runs its elimination
    E = characteristic.quasi_canonical(rational_normal_curve(6)).E
    f = characteristic.beta_map(E)
    assert f.is_isomorphism()
    assert "relation_gb" not in f.domain.cache


def test_tensor_products_record_their_origin(rings):
    # a tensor result keeps its very factors; A (x) R is A itself, and its
    # own origin (here a Hom module's) is left as it was
    _, R = rings
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    H = hom_module(Rm, k)
    origin = H.cache["origin"]
    assert tensor_module(H, Rm) is H
    assert H.cache["origin"] is origin and origin["kind"] == "hom"
    T = tensor_module(H, k)
    assert T.cache["origin"] == {"kind": "tensor", "A": H, "B": k}
    assert T.cache["origin"]["A"] is H and T.cache["origin"]["B"] is k


def test_iso_probe_certifies_unequal_series_behind_equal_betti_tables():
    # two sums of monomial quotients of GF(101)[a,b,c,d]: equal Hilbert
    # functions on the window [0, 8] and equal Betti tables through
    # homological degree 3, but the one fourth syzygy sits in degree 10 on
    # one side and 9 on the other, so the series differ.  That certifies;
    # without it the probe of (A, B) tried its maps and ended "inconclusive"
    Q = PolyRing(101, tuple("abcd"))

    def direct_sum(*ideals):
        cols = [[Q.poly(g) if j == pos else Q.poly("0") for j in range(len(ideals))]
                for pos, gens in enumerate(ideals) for g in gens]
        rels = matrix_from_columns(Q, [0] * len(ideals), cols)
        return PresentedModule(rels.target, rels)

    A = direct_sum(["b^3*d", "a*b*c*d", "a^3*c"], ["c*d^2", "b*c^3", "b^4", "a*b", "a^2*c"])
    B = direct_sum(["b*d", "b*c^3", "b^2*c", "a^3"], ["c*d^3", "b^2*c*d", "a*b^2*c", "a^2*c^2"])
    assert hilbert_function_basis(A, 0, 8) == hilbert_function_basis(B, 0, 8)
    assert hilbert_series_leads(A) != hilbert_series_leads(B)
    bA, bB = q_resolution(A).betti(), q_resolution(B).betti()
    assert bA.restrict(3) == bB.restrict(3)
    assert [r for r in bA.rows() if r[0] == 4] == [[4, 10, 1]]
    assert [r for r in bB.rows() if r[0] == 4] == [[4, 9, 1]]
    for X, Y in ((A, B), (B, A)):
        got = iso_probe(X, Y)
        assert (got.verdict, got.certificate) == (
            "certified_nonisomorphic", {"reason": "hilbert series differs"})
