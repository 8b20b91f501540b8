"""Dimension, depth, type, Hilbert series routes, Poincare/Bass series."""

import pytest

from charmod import characteristic, corpus
from charmod.cmr import load
from charmod.freemod import GradedFreeModule
from charmod.groebner import buchberger
from charmod.homology import module_basis, subquotient
from charmod.invariants import (
    HilbertSeries,
    annihilator,
    cm_defect,
    depth_module,
    dimension,
    gdim_bounded,
    hilbert_series_leads,
    is_cohen_macaulay,
    is_gorenstein_ring,
    module_report,
    nu,
    poincare_bass,
    q_resolution,
    ring_module_of,
    ring_report,
    type_of,
)
from charmod.resolution import PresentedModule
from charmod.ring import PolyRing

from conftest import FIXTURES, ext_k_module


def test_ring_report_goldens(veronese_doc, e2_doc, hypersurface_doc,
                             stanley_reisner_doc):
    expected = {
        "veronese": dict(dim=2, depth=2, type=2, is_cm=True, is_gorenstein=False),
        "e2": dict(dim=1, depth=0, type=1, is_cm=False, is_gorenstein=False),
        "hypersurface": dict(dim=1, depth=1, type=1, is_cm=True, is_gorenstein=True),
        "stanley_reisner": dict(dim=2, depth=1, type=1, is_cm=False,
                                is_gorenstein=False),
    }
    docs = {"veronese": veronese_doc, "e2": e2_doc,
            "hypersurface": hypersurface_doc,
            "stanley_reisner": stanley_reisner_doc}
    for name, want in expected.items():
        got = ring_report(docs[name].quotient())
        for key, val in want.items():
            assert got[key] == val, f"{name}.{key}"
        assert got["cmd"] == got["dim"] - got["depth"]
        assert got["nu"] == 1


def test_ring_report_betti_and_numerator(veronese_doc):
    got = ring_report(veronese_doc.quotient())
    assert got["betti"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
    assert got["hilbert_numerator"] == [[0, 1], [2, -3], [3, 2]]
    assert got["pd_q"] == 2


def _series_from_resolution(res):
    """Reference route: the alternating sum of the twists of a minimal
    resolution over the cover ring is the Hilbert numerator."""
    num = {}
    for i, mod in enumerate(res.modules):
        for t in mod.twists:
            num[t] = num.get(t, 0) + (-1) ** i
    return HilbertSeries(num, res.base.cover.n)


def test_hilbert_series_two_routes_agree(veronese_doc, e2_doc, stanley_reisner_doc):
    # the resolution route (reference) against the lead-term route (production)
    for doc in (veronese_doc, e2_doc, stanley_reisner_doc):
        M = PresentedModule.ring_module(doc.quotient())
        a = _series_from_resolution(q_resolution(M))
        b = hilbert_series_leads(M)
        assert a == b
        # and both match brute-force degreewise bases
        assert a.values(0, 6) == [len(module_basis(M, d)) for d in range(7)]


def test_hilbert_series_arithmetic():
    s = HilbertSeries({0: 1, 2: -2, 3: 1}, 2)
    assert s.values(0, 5) == [1, 2, 1, 1, 1, 1]
    assert s.dimension() == 1
    assert HilbertSeries({}, 3).dimension() == -1
    art = HilbertSeries({0: 1, 1: -2, 2: 1}, 2)  # k as a module over 2 variables
    assert art.dimension() == 0
    assert art.values(0, 3) == [1, 0, 0, 0]


def test_depth_by_ext_nonvanishing(veronese_doc, e2_doc, hypersurface_doc):
    # depth equals the least i with Ext^i(k, M) nonzero
    for doc in (veronese_doc, e2_doc, hypersurface_doc):
        M = PresentedModule.ring_module(doc.quotient())
        t = depth_module(M)
        for i in range(t):
            assert ext_k_module(M, i).is_zero(), f"Ext^{i} should vanish"
        assert not ext_k_module(M, t).is_zero()


def test_type_is_last_q_betti_number(mixed_corpus, e2_doc, hypersurface_doc,
                                     stanley_reisner_doc, veronese_doc):
    # the production route, the last Betti number over the cover ring,
    # against the reference route dim_k Ext^t(k, M) over the base with
    # t = depth M, on E and on every nonzero battery pool module M with
    # T(M) and E(M), for the first 10 acceptance instances and the fixtures
    docs = list(mixed_corpus[:10]) + [e2_doc, hypersurface_doc,
                                      stanley_reisner_doc, veronese_doc]
    mods = []
    for doc in docs:
        mods.append(characteristic.quasi_canonical(doc.quotient()).E)
        for _, M in corpus.module_pool(doc):
            mods += [M, characteristic.char_module(M), characteristic.cochar_module(M)]
    types = []
    for M in mods:
        if M.is_zero():
            continue
        types.append(type_of(M))
        assert types[-1] == ext_k_module(M, depth_module(M)).nu()
    assert len(types) == 130 and max(types) > 1


def test_type_builds_no_resolution_of_the_residue_field():
    # a work gate: the type comes off the cover-ring resolution the depth
    # already built, so no resolution of k over the base is started
    R = load(FIXTURES / "veronese.cmr").quotient()
    assert type_of(ring_module_of(R)) == 2
    assert "k_resolution" not in R.cache


def test_type_is_socle_dimension_in_artinian_case(e2_doc):
    R = e2_doc.quotient()
    k = PresentedModule.residue_field(R)
    assert type_of(k) == 1
    assert depth_module(k) == 0
    assert dimension(k) == 0


def test_zero_module_conventions():
    ring = PolyRing(101, ("x", "y"))
    z = PresentedModule.free(ring, ())
    assert nu(z) == 0
    assert dimension(z) == -1
    with pytest.raises(ValueError):
        depth_module(z)
    with pytest.raises(ValueError):
        type_of(z)
    rep = module_report(z)
    assert rep["dim"] == -1 and rep["nu"] == 0


def test_annihilator_goldens(e2_doc):
    R = e2_doc.quotient()
    Rm = PresentedModule.ring_module(R)
    k = PresentedModule.residue_field(R)
    assert annihilator(Rm).is_zero()
    ann = annihilator(k)
    assert sorted(str(g) for g in ann.groebner_basis()) == ["x", "y"]
    assert not ann.is_zero()
    # annihilator of R/(x) in R = Q/(x^2, xy) is (x)
    amb = GradedFreeModule(R, (0,))
    modx = subquotient(buchberger([amb.basis_vector(0)], amb),
                       [amb.vector_from_polys([R.poly("x")])])
    annx = annihilator(modx)
    assert [str(g) for g in annx.groebner_basis()] == ["x"]


def test_poincare_series_of_residue_field_is_fibonacci(e2_doc):
    # frozen oracle: ranks in the minimal resolution of k over Q/(x^2, xy)
    # follow the rational closed form (1+t)^2 / (1 - 2t^2 - t^3), whose
    # expansion is the Fibonacci sequence 1, 2, 3, 5, 8, 13, ...
    R = e2_doc.quotient()
    k = PresentedModule.residue_field(R)
    pb = poincare_bass(k, 5)
    assert pb["poincare"] == [1, 2, 3, 5, 8, 13]
    # Bass numbers of k are Ext^i(k, k), which are the same Betti numbers
    assert pb["bass"] == [1, 2, 3, 5, 8, 13]


def test_poincare_bass_of_ring_module(e2_doc):
    R = e2_doc.quotient()
    Rm = PresentedModule.ring_module(R)
    pb = poincare_bass(Rm, 4)
    assert pb["poincare"] == [1, 0, 0, 0, 0]
    # Bass numbers of R start at its depth (0 here, with socle dimension 1)
    assert pb["bass"][0] == 1


def test_poincare_bass_past_a_finite_resolution():
    # over GF(101)[x, y] the resolution of k stops at 2, so the positions
    # past it are zero maps and the Bass numbers there vanish
    ring = PolyRing(101, ("x", "y"))
    pb = poincare_bass(PresentedModule.residue_field(ring), 4)
    assert pb == {"poincare": [1, 2, 1, 0, 0], "bass": [1, 2, 1, 0, 0]}


def test_gdim_tiers(e2_doc, hypersurface_doc):
    # finite projective dimension is certified exactly
    ring = PolyRing(101, ("x", "y"))
    k = PresentedModule.residue_field(ring)
    out = gdim_bounded(k, 5)
    assert out == {"status": "certified", "value": 2,
                   "note": "finite projective dimension"}
    # over a Gorenstein base the depth formula certifies the value
    H = hypersurface_doc.quotient()
    out = gdim_bounded(PresentedModule.residue_field(H), 5)
    assert out["status"] == "certified" and out["value"] == 1
    # over Q/(x^2, xy) the residue field has Ext^1(k, R) != 0: inconclusive
    out = gdim_bounded(PresentedModule.residue_field(e2_doc.quotient()), 5)
    assert out["status"] == "inconclusive"
    assert "Ext^1" in out["note"]


def test_cm_predicates(veronese_doc, stanley_reisner_doc):
    V = PresentedModule.ring_module(veronese_doc.quotient())
    S = PresentedModule.ring_module(stanley_reisner_doc.quotient())
    assert is_cohen_macaulay(V) and cm_defect(V) == 0
    assert not is_cohen_macaulay(S) and cm_defect(S) == 1
    assert is_gorenstein_ring(PolyRing(101, ("x", "y")))
    assert not is_gorenstein_ring(stanley_reisner_doc.quotient())
