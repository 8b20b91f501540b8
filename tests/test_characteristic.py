"""Characteristic/cocharacteristic modules, the quasi-canonical module, checkers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from charmod import characteristic
from charmod.characteristic import (
    alpha_map,
    beta_map,
    char_module,
    char_via_hom,
    check_cor_artinian,
    check_cor_id,
    check_faithful,
    check_gorenstein,
    check_thm8,
    check_type_formula,
    check_type_formula_depth,
    cochar_module,
    cochar_via_tensor,
    iso_probe_shifted,
    quasi_canonical,
    split_identity_check,
    tor_modules,
)
from charmod.corpus import module_pool
from charmod.groebner import QuotientRing
from charmod.homology import hilbert_function_basis, iso_probe
from charmod.invariants import depth_module, dimension, nu, type_of
from charmod.resolution import PresentedModule
from charmod.ring import PolyRing

THM8_CONDITIONS = (
    "exists_dim_T_eq_dim", "exists_dim_E_eq_dim", "dim_T_R_eq_dim",
    "dim_E_R_eq_dim", "cohen_macaulay", "alpha_R_iso", "beta_E_iso")


def test_quasi_canonical_goldens(veronese_doc, e2_doc, hypersurface_doc,
                                 stanley_reisner_doc):
    cases = [
        (veronese_doc, 2, (-3, -3), [2, 5, 8]),
        (e2_doc, 2, (-3,), [1, 0, 0]),
        (hypersurface_doc, 1, (-2,), [1, 2, 2]),
        (stanley_reisner_doc, 2, (-3,), [1, 1, 1]),
    ]
    for doc, s, twists, hf_head in cases:
        data = quasi_canonical(doc.quotient())
        assert data.s == s
        mini = data.E.minimal()
        assert tuple(mini.gens.twists) == twists
        lo = min(twists)
        assert hilbert_function_basis(data.E, lo, lo + 2) == hf_head
        assert data.provenance["agree"]
        # nu(E) always equals the type of the ring
        assert nu(data.E) == type_of(PresentedModule.ring_module(doc.quotient()))


def test_quasi_canonical_of_gorenstein_ring_is_free(hypersurface_doc):
    R = hypersurface_doc.quotient()
    data = quasi_canonical(R)
    mini = data.E.minimal()
    assert mini.gens.rank == 1 and mini.rels.source.rank == 0
    Rm = PresentedModule.ring_module(R)
    probe, shift = iso_probe_shifted(data.E, Rm)
    assert probe.verdict == "probably_isomorphic" and shift == -2


def test_char_module_goldens_veronese(veronese_doc):
    R = veronese_doc.quotient()
    Rm = PresentedModule.ring_module(R)
    TR = char_module(Rm)
    assert nu(TR) == 3 and type_of(TR) == 3
    assert depth_module(TR) == 2 and dimension(TR) == 2
    tors = tor_modules(Rm)
    assert len(tors) == 3
    assert dimension(tors[1]) == 2 and depth_module(tors[1]) == 1


def test_char_module_goldens_e2(e2_doc):
    R = e2_doc.quotient()
    k = PresentedModule.residue_field(R)
    Tk = char_module(k)
    assert tuple(Tk.minimal().gens.twists) == (3,)
    assert nu(Tk) == 1
    assert hilbert_function_basis(Tk, 3, 8) == [1, 0, 0, 0, 0, 0]
    assert iso_probe_shifted(Tk, k)[0].verdict == "probably_isomorphic"
    # killing a socle generator kills the characteristic module
    modx = e2_doc.module("Rmodx")
    assert char_module(modx).is_zero()
    assert not cochar_module(modx).is_zero()


def test_char_cochar_routes_agree(e2_doc, hypersurface_doc):
    for doc in (e2_doc, hypersurface_doc):
        R = doc.quotient()
        for M in (PresentedModule.ring_module(R),
                  PresentedModule.residue_field(R)):
            TM, TM2 = char_module(M), char_via_hom(M)
            assert (hilbert_function_basis(TM, -4, 6)
                    == hilbert_function_basis(TM2, -4, 6))
            EM, EM2 = cochar_module(M), cochar_via_tensor(M)
            assert (hilbert_function_basis(EM, -4, 6)
                    == hilbert_function_basis(EM2, -4, 6))
            assert iso_probe(TM, TM2).verdict != "certified_nonisomorphic"
            assert iso_probe(EM, EM2).verdict != "certified_nonisomorphic"


def test_alpha_beta_isomorphisms_on_gorenstein(hypersurface_doc):
    R = hypersurface_doc.quotient()
    Rm = PresentedModule.ring_module(R)
    assert alpha_map(Rm).is_isomorphism()
    E = quasi_canonical(R).E
    assert beta_map(E).is_isomorphism()


def test_alpha_not_isomorphism_on_non_cm(e2_doc):
    R = e2_doc.quotient()
    Rm = PresentedModule.ring_module(R)
    assert not alpha_map(Rm).is_isomorphism()


def test_split_identities(e2_doc, hypersurface_doc):
    for doc in (e2_doc, hypersurface_doc):
        R = doc.quotient()
        for M in (PresentedModule.ring_module(R),
                  PresentedModule.residue_field(R)):
            out = split_identity_check(R, M)
            assert out == {"t_beta_alpha": True, "beta_e_alpha": True}


def test_routes_are_built_once_per_module_object(monkeypatch, veronese_doc, e2_doc,
                                                 hypersurface_doc, stanley_reisner_doc):
    built = []

    def counting(name):
        real = getattr(characteristic, name)

        def wrapper(*args):
            built.append(name)
            return real(*args)
        return wrapper

    for name in ("hom_module", "tensor_module"):
        monkeypatch.setattr(characteristic, name, counting(name))
    ok = {"t_beta_alpha": True, "beta_e_alpha": True}
    for doc in (veronese_doc, e2_doc, hypersurface_doc, stanley_reisner_doc):
        R = doc.quotient()
        for name, M in module_pool(doc):
            # the natural maps are built on the memoized routes themselves
            assert alpha_map(M).codomain is char_via_hom(cochar_via_tensor(M)), name
            assert beta_map(M).domain is cochar_via_tensor(char_via_hom(M)), name
            assert split_identity_check(R, M) == ok, name
            built.clear()
            assert split_identity_check(R, M) == ok, name
            assert built == [], name
            # a distinct object equal by value gets its own entries, whose
            # origin is that object, not the one memoized first
            twin = PresentedModule(M.gens, M.rels)
            assert twin == M
            H, T = char_via_hom(twin), cochar_via_tensor(twin)
            assert built == ["hom_module", "tensor_module"], name
            assert H is not char_via_hom(M), name
            if twin == PresentedModule.ring_module(R):
                # E (x) R is E itself, whichever object stands for R
                assert T is quasi_canonical(R).E and T is cochar_via_tensor(M), name
            else:
                assert T is not cochar_via_tensor(M), name
            assert H.cache["origin"]["B"] is twin, name
            assert char_via_hom(M).cache["origin"]["B"] is M, name
            assert (H.gens, H.rels) == (char_via_hom(M).gens, char_via_hom(M).rels), name


def test_thm8_verdicts(veronese_doc, e2_doc, hypersurface_doc,
                       stanley_reisner_doc):
    expected = [
        (veronese_doc, True), (hypersurface_doc, True),
        (e2_doc, False), (stanley_reisner_doc, False),
    ]
    for doc, truth in expected:
        rep = check_thm8(doc.quotient())
        assert rep.verdict == "verified"
        conds = rep.witnesses["conditions"]
        assert set(conds) == set(THM8_CONDITIONS)
        assert all(v is truth for v in conds.values()), (doc, conds)


SEVEN_VARIABLES_SCRIPT = """
from charmod.characteristic import check_thm8
from charmod.groebner import QuotientRing
from charmod.ring import PolyRing

n = 7
ring = PolyRing(32003, [f"x{i}" for i in range(n)])
assert not ring.pack.ctx.fits64  # keys wider than a word: the pure kernel
minors = [ring.monomial([(k == i) + (k == j + 1) for k in range(n)])
          - ring.monomial([(k == i + 1) + (k == j) for k in range(n)])
          for i in range(n - 1) for j in range(i + 1, n - 1)]
rep = check_thm8(QuotientRing(ring, [f for f in minors if not f.is_zero()]))
print(rep.verdict, all(rep.witnesses["conditions"].values()))
"""


def test_thm8_on_the_rational_normal_curve_in_seven_variables():
    # the curve is Cohen-Macaulay, so all seven conditions hold; every
    # elimination reduces through the pure kernel's position buckets, and
    # the linear scan over all leads took over twice this budget
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        res = subprocess.run([sys.executable, "-c", SEVEN_VARIABLES_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=12)
    except subprocess.TimeoutExpired:
        pytest.fail("thm8 on the 7-variable rational normal curve took over 12 s")
    assert res.returncode == 0, res.stderr[-3000:]
    assert res.stdout.split() == ["verified", "True"]


def test_thm8_condition_seven_witnesses(veronese_doc):
    rep = check_thm8(veronese_doc.quotient())
    # the raw beta comparison and the faithfulness side are recorded separately
    assert "beta_E_literal_iso" in rep.witnesses
    assert "E_faithful" in rep.witnesses
    assert rep.witnesses["pool"]


def test_gorenstein_checker(veronese_doc, e2_doc, hypersurface_doc):
    g = check_gorenstein(hypersurface_doc.quotient())
    assert g.verdict == "verified"
    assert g.witnesses["is_gorenstein_by_type"]
    assert g.witnesses["T_R_free_nonzero"] and g.witnesses["E_R_free_nonzero"]
    for doc, nu_t, nu_e in ((veronese_doc, 3, 2), (e2_doc, 1, 1)):
        g = check_gorenstein(doc.quotient())
        assert g.verdict == "verified"
        assert not g.witnesses["is_gorenstein_by_type"]
        assert not g.witnesses["T_R_free_nonzero"]
        assert g.witnesses["nu_T_R"] == nu_t and g.witnesses["nu_E_R"] == nu_e


def test_type_formula_checker(veronese_doc, e2_doc):
    for doc in (veronese_doc, e2_doc):
        R = doc.quotient()
        for M in (PresentedModule.ring_module(R),
                  PresentedModule.residue_field(R)):
            rep = check_type_formula(R, M)
            assert rep.verdict == "verified"
            w = rep.witnesses
            assert w["nu_E_M"] == w["type_R"] * w["nu_M"] == w["rhs"]


def test_type_formula_depth_hypothesis_failure(veronese_doc):
    R = veronese_doc.quotient()
    rep = check_type_formula_depth(R, PresentedModule.residue_field(R))
    assert rep.verdict == "inconclusive"
    assert rep.witnesses["hypothesis_failures"]
    # both sides are still recorded, and happen to agree here
    assert rep.witnesses["type_T_M"] == rep.witnesses["type_R_times_type_M"]


def test_type_formula_depth_verified_case(hypersurface_doc):
    R = hypersurface_doc.quotient()
    rep = check_type_formula_depth(R, PresentedModule.ring_module(R))
    assert rep.verdict == "verified"


def test_cor_id_checker(e2_doc, hypersurface_doc):
    H = hypersurface_doc.quotient()
    Hm = PresentedModule.ring_module(H)
    rep = check_cor_id(H, Hm)
    assert rep.verdict == "verified"
    assert rep.witnesses["finite_id_certificate"] == "free_over_gorenstein"
    Re = e2_doc.quotient()
    rep = check_cor_id(Re, PresentedModule.residue_field(Re))
    assert rep.verdict == "inconclusive"
    with pytest.raises(ValueError):
        check_cor_id(Re, PresentedModule.free(Re, ()))


def test_cor_artinian_checker(e2_doc):
    ring = PolyRing(101, ("x", "y"))
    ci = QuotientRing(ring, [ring.poly("x^2"), ring.poly("y^2")])
    rep = check_cor_artinian(ci, PresentedModule.residue_field(ci))
    assert rep.verdict == "verified"
    assert rep.witnesses["is_gorenstein"]
    # non-Gorenstein artinian ring: the contrapositive is an honest instance
    fat = QuotientRing(ring, [ring.poly("x^2"), ring.poly("x*y"),
                              ring.poly("y^2")])
    rep = check_cor_artinian(fat, PresentedModule.residue_field(fat))
    assert rep.verdict == "verified"
    assert rep.witnesses["type_M"] == 1
    assert rep.witnesses["type_T_M"] == 2
    assert not rep.witnesses["is_gorenstein"]
    # one-dimensional rings are rejected outright
    with pytest.raises(ValueError):
        check_cor_artinian(e2_doc.quotient(),
                           PresentedModule.residue_field(e2_doc.quotient()))


def test_faithful_checker(veronese_doc, hypersurface_doc):
    H = hypersurface_doc.quotient()
    Hm = PresentedModule.ring_module(H)
    rep = check_faithful(H, Hm)
    assert rep.verdict == "verified"
    assert rep.witnesses["shift"] == -2
    assert rep.witnesses["ann_M_zero"]
    assert rep.witnesses["E_maximal_cm"] and rep.witnesses["nu_E_eq_type_R"]
    # hypothesis M = T(M) fails for the ring module here: nu jumps 1 -> 3
    V = veronese_doc.quotient()
    with pytest.raises(ValueError):
        check_faithful(V, PresentedModule.ring_module(V))


def test_iso_probe_shifted_alignment(e2_doc):
    R = e2_doc.quotient()
    k = PresentedModule.residue_field(R)
    Tk = char_module(k)
    probe, shift = iso_probe_shifted(k, Tk)
    assert probe.verdict == "probably_isomorphic"
    assert shift == -3
    z = PresentedModule.free(R, ())
    assert iso_probe_shifted(z, z)[0].verdict == "probably_isomorphic"
    assert iso_probe_shifted(k, z)[0].verdict == "certified_nonisomorphic"
