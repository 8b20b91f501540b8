"""Randomized instance generator: determinism, bounds, profile guarantees."""

import heapq
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmod import groebner, resolution
from charmod.characteristic import check_thm8
from charmod.cmr import InputDocument, ModuleBlock, parse, render
from charmod.corpus import (
    PROFILES,
    corpus_battery,
    generate_corpus,
    hunt_counterexample,
    instance_id,
)
from charmod.invariants import is_cohen_macaulay, q_resolution, ring_module_of
from charmod.ring import PolyRing

from conftest import cyclic_quotient, rational_normal_curve

SRC = Path(__file__).resolve().parent.parent / "src"


def test_profiles_and_ids():
    assert set(PROFILES) == {"monomial", "binomial", "ci", "mixed"}
    assert instance_id("mixed", 7, 3) == "mixed-7-003"
    with pytest.raises(ValueError):
        generate_corpus(1, 1, "typo")


def test_determinism_and_prefix_stability():
    a = generate_corpus(7, 10, "mixed")
    b = generate_corpus(7, 10, "mixed")
    assert [render(x) for x in a] == [render(y) for y in b]
    long = generate_corpus(7, 25, "mixed")
    assert [render(x) for x in long[:10]] == [render(x) for x in a]
    other = generate_corpus(8, 10, "mixed")
    assert [render(x) for x in other] != [render(x) for x in a]


def _as_lex(doc):
    """The same document over the lex order, built without the parser."""
    lex = PolyRing(doc.p, doc.variables, "lex")

    def conv(f):
        return lex.from_dict({f.ring.pack.exps(k): c for k, c in f.terms})
    blocks = [ModuleBlock(b.name, b.twists, [[conv(f) for f in row] for row in b.rows])
              for b in doc.modules]
    return InputDocument(doc.p, doc.variables, "lex",
                         [conv(f) for f in doc.ideal_gens], blocks)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(profile=st.sampled_from(PROFILES), seed=st.integers(0, 10 ** 6),
       index=st.integers(0, 7), lex=st.booleans())
def test_instances_round_trip_through_text(profile, seed, index, lex):
    # the promise of cmr.render, over every profile, both orders and the
    # documents' module blocks: parse(render(doc)) == doc, and a second
    # rendering is byte-identical
    doc = generate_corpus(seed, index + 1, profile)[index]
    if lex:
        doc = _as_lex(doc)
    assert doc.modules and doc.order == ("lex" if lex else "grevlex")
    text = render(doc)
    again = parse(text)
    assert again == doc
    assert render(again) == text


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_structural_bounds(profile):
    for doc in generate_corpus(11, 12, profile):
        n = len(doc.variables)
        assert 2 <= n <= 4
        assert 1 <= len(doc.ideal_gens) <= 5
        cap = 2 if n == 4 else 3
        for g in doc.ideal_gens:
            assert g.is_homogeneous()
            assert 1 <= g.degree() <= cap
        # every instance ships a nonzero test module
        assert "M" in doc.module_names()
        M = doc.module("M")
        assert not M.minimal().is_zero()


def test_monomial_profile_is_monomial():
    for doc in generate_corpus(5, 10, "monomial"):
        for g in doc.ideal_gens:
            assert len(g.terms) == 1


def test_binomial_profile_term_counts():
    docs = generate_corpus(5, 10, "binomial")
    for doc in docs:
        for g in doc.ideal_gens:
            assert len(g.terms) <= 2
    # cancellation can shrink individual generators, but true binomials dominate
    with_binomial = sum(any(len(g.terms) == 2 for g in doc.ideal_gens)
                        for doc in docs)
    assert with_binomial >= 5


def test_ci_profile_gives_regular_sequences():
    for doc in generate_corpus(9, 10, "ci"):
        cover = doc.ring()
        M = cyclic_quotient(cover, list(doc.ideal_gens))
        assert q_resolution(M).projective_dimension() == len(doc.ideal_gens)


def test_mixed_profile_hits_non_cm_instances(mixed_corpus):
    # the acceptance corpus must exercise the non-CM branch of every theorem
    flags = [is_cohen_macaulay(ring_module_of(doc.quotient()))
             for doc in mixed_corpus]
    assert flags.count(False) >= 10
    assert flags.count(True) >= 10


def test_battery_on_single_instances():
    doc = generate_corpus(7, 1, "mixed")[0]
    out = corpus_battery(doc, instance_id("mixed", 7, 0), degree_bound=8,
                         seed=7, split=True)
    assert out["verdict"] == "verified"
    assert out["failures"] == []
    assert set(out["checks"]) >= {"canonical_routes_agree", "prop2", "thm8",
                                  "nu_formula", "split"}
    for probes in out["checks"]["prop2"].values():
        assert probes["hf_char_agree"] and probes["hf_cochar_agree"]
        assert probes["probe_char"] != "certified_nonisomorphic"
    assert out["id"] == "mixed-7-000"
    assert isinstance(out["is_cm"], bool)


def test_battery_on_a_zero_module_leaves_the_nu_formula_not_applicable():
    # nu(E(M)) = type(R) nu(M) is stated for M nonzero; the other checks
    # run on the zero module, and the battery still verifies
    doc = parse("field 101\nring x y\nideal\nx^2\nend\nmodule Z twists 0\n[ 1 ]\nend\n")
    assert doc.module("Z").is_zero()
    out = corpus_battery(doc, "zero")
    assert (out["verdict"], out["failures"]) == ("verified", [])
    assert out["checks"]["nu_formula"]["Z"] == {"verdict": "not_applicable",
                                                "notes": ["M must be nonzero"]}
    assert out["checks"]["split"]["Z"] == {"t_beta_alpha": True, "beta_e_alpha": True}


def test_battery_is_deterministic():
    doc = generate_corpus(2, 1, "monomial")[0]
    a = corpus_battery(doc, "t", degree_bound=8, seed=2, split=False)
    b = corpus_battery(doc, "t", degree_bound=8, seed=2, split=False)
    assert a == b


# _buchberger_terms runs of the battery on the first 10 acceptance instances
# 1,442 before the eliminations handed back their bases, 922 before
# minimal() returned the module itself when nothing cancels, 745 before the
# routes T, E, Hom(E, -) and E (x) - were memoized on each module object,
# 536 while is_isomorphism built the kernel and E (x) R was a new object,
# 476 while is_isomorphism read the Hilbert series of a tensor product off
# its full grid presentation, 475 while type_of computed Ext^t(k, M) over
# the base from a resolution of k, 439 before syzygy_generators memoized
# its eliminations in the base ring's cache, 329 while colon ideals ran
# their eliminations outside that memo, 323 while every cycles elimination
# took its codomain's relation columns, even where the copied module held
# its relation basis (the memo key now holds that basis, which equal
# modules with different columns share), 305 while the bases over a
# quotient ring kept the elements whose leads lie in in(I) * F, 306 while
# iso_probe built Hom(A, B) through degree 0 for two cyclic modules too
# (those 23 runs formed no S-pair)
BATTERY_10_GROEBNER_RUNS = 283
# the S-pair work inside those runs: pairs pushed on the pair heap, and
# S-polynomials reduced (two scaled merges each); the criteria must prune
# the same pairs whatever form a pair's lcm takes; 1,755 and 1,585 while
# is_isomorphism built the kernel and E (x) R was a new object, 1,671 and
# 1,511 while it read a tensor product's series off the full grid, 1,643
# and 1,490 while type_of computed Ext^t(k, M) from a resolution of k,
# 1,446 and 1,309 before syzygy_generators memoized its eliminations,
# 1,167 and 1,041 while colon ideals ran theirs outside the memo, 1,163
# and 1,037 while iso_probe built Hom(A, B) in every degree, 797 and 683
# while the cycles eliminations formed the pairs inside a known relation
# basis, 738 and 624 while the ideal entered as columns g * e_pos (each
# reduced on entry, unpushed and uncounted, where its pairs are now counted),
# 1,582 and 1,177 while a pair of two single terms (S-polynomial 0) was
# pushed and reduced
BATTERY_10_SPAIRS_FORMED = 572
BATTERY_10_SPOLYS_REDUCED = 391
# _cancel_units runs on those instances: 216 while nu, is_zero and
# is_surjective cancelled units instead of counting by graded Nakayama
BATTERY_10_UNIT_CANCELLATIONS = 166


def _count_groebner_work(monkeypatch):
    """Lists that grow by one per ``_buchberger_terms`` run, per S-pair
    pushed on the pair heap, and per scaled merge inside a run (two per
    S-polynomial reduced)."""
    runs, pushes, merges = [], [], []
    active = []  # non-empty inside a _buchberger_terms run
    real = groebner._buchberger_terms
    real_merge = groebner.scaled_merge

    def counting(*args, **kwargs):
        runs.append(None)
        active.append(None)
        try:
            return real(*args, **kwargs)
        finally:
            active.pop()

    def push(heap, item):
        pushes.append(None)
        heapq.heappush(heap, item)

    def merge(*args):
        # intersect_ideals merges too, outside any Buchberger run
        if active:
            merges.append(None)
        return real_merge(*args)

    monkeypatch.setattr(groebner, "_buchberger_terms", counting)
    monkeypatch.setattr(groebner, "heapq",
                        SimpleNamespace(heappush=push, heappop=heapq.heappop))
    monkeypatch.setattr(groebner, "scaled_merge", merge)
    return runs, pushes, merges


def _count_unit_cancellations(monkeypatch):
    """A list that grows by one per ``_cancel_units`` run."""
    runs = []
    real = resolution._cancel_units

    def counting(*args):
        runs.append(None)
        return real(*args)

    monkeypatch.setattr(resolution, "_cancel_units", counting)
    return runs


def test_battery_groebner_run_count(monkeypatch):
    # a deterministic work gate: wall time on a small shared box is not;
    # fresh documents, so no ring cache from another test is reused
    runs, pushes, merges = _count_groebner_work(monkeypatch)
    cancels = _count_unit_cancellations(monkeypatch)
    for i, doc in enumerate(generate_corpus(7, 10, "mixed")):
        rep = corpus_battery(doc, instance_id("mixed", 7, i), split=True)
        assert rep["verdict"] == "verified", rep["failures"]
    assert len(runs) == BATTERY_10_GROEBNER_RUNS
    assert (len(pushes), len(merges)) == (BATTERY_10_SPAIRS_FORMED,
                                          2 * BATTERY_10_SPOLYS_REDUCED)
    assert len(cancels) == BATTERY_10_UNIT_CANCELLATIONS


# _buchberger_terms runs of check_thm8 on the rational normal curve in n
# variables over GF(32003), unrescaled: {5: 26, 6: 28} while is_isomorphism
# built the kernel and E (x) R was a new object (Hom(E, E) built twice),
# {5: 21, 6: 23} while is_isomorphism read the Hilbert series of beta_E's
# domain E (x) Hom(E, E) off its full grid presentation, {5: 20, 6: 22}
# while the bases over a quotient ring kept the elements whose leads lie in
# in(I) * F
THM8_RNC_GROEBNER_RUNS = {5: 19, 6: 21}
# the S-pair work inside those runs, counted as for the battery: (pairs
# formed, S-polynomials reduced); {5: (1650, 1062), 6: (7076, 3752)} on
# the full grid presentation of beta_E's domain, {5: (1089, 808),
# 6: (4179, 2710)} while the cycles eliminations formed the pairs inside a
# known relation basis, {5: (849, 624), 6: (2702, 1778)} while the ideal
# entered as columns g * e_pos, {5: (827, 669), 6: (2440, 1873)} while a
# pair of two single terms was pushed and reduced
THM8_RNC_SPAIR_WORK = {5: (702, 544), 6: (2129, 1562)}
# _cancel_units runs of those check_thm8 calls: {5: 15, 6: 16} while nu,
# is_zero and is_surjective cancelled units
THM8_RNC_UNIT_CANCELLATIONS = {5: 12, 6: 13}


def test_thm8_groebner_run_count_on_rational_normal_curves(monkeypatch):
    # a deterministic work gate for the 5- and 6-variable curves, whose
    # check_thm8 wall time on a small shared box is not one
    runs, pushes, merges = _count_groebner_work(monkeypatch)
    cancels = _count_unit_cancellations(monkeypatch)
    got, work, cancelled = {}, {}, {}
    for n in THM8_RNC_GROEBNER_RUNS:
        for seen in (runs, pushes, merges, cancels):
            seen.clear()
        rep = check_thm8(rational_normal_curve(n))
        assert rep.verdict == "verified" and all(rep.witnesses["conditions"].values())
        got[n] = len(runs)
        work[n] = (len(pushes), len(merges))
        cancelled[n] = len(cancels)
    assert got == THM8_RNC_GROEBNER_RUNS
    assert cancelled == THM8_RNC_UNIT_CANCELLATIONS
    assert work == {n: (formed, 2 * reduced)
                    for n, (formed, reduced) in THM8_RNC_SPAIR_WORK.items()}


STALL_SCRIPT = """
from charmod import corpus
doc = corpus._instance("mixed", 8, 42)
print(corpus.corpus_battery(doc, corpus.instance_id("mixed", 8, 42), seed=8)["verdict"])
"""


def test_battery_on_mixed_8_042_finishes():
    # every iso_probe pair of this instance has equal Hilbert series and a
    # winning first trial map; comparing Betti tables first resolved the
    # E (x) M side of the cocharacteristic pair through compounding
    # non-minimal syzygies for over 25 minutes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        res = subprocess.run([sys.executable, "-c", STALL_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("battery on mixed-8-042 did not finish within 30 s")
    assert res.returncode == 0, res.stderr[-3000:]
    assert res.stdout.split() == ["verified"]


def test_hunt_counterexample_reports_scan():
    out = hunt_counterexample(3, 4)
    assert out["scanned"] == 4
    assert 0 <= out["non_gorenstein"] <= 4
    assert isinstance(out["candidates"], list)
    for cand in out["candidates"]:
        assert set(cand) >= {"id", "module", "dim", "shift", "ideal"}
