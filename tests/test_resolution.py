"""Free resolutions: Koszul goldens, minimality, exactness by dimension
counts, on drawn presentations too, and the one-pass unit cancellation
compared with a rebuild after every pivot."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmod import corpus, invariants, resolution
from charmod.characteristic import char_module, cochar_module, quasi_canonical, tor_modules
from charmod.freemod import GradedFreeModule, GradedMatrix, term_okey, term_pos
from charmod.groebner import QuotientRing, syzygy_generators
from charmod.homology import hilbert_function_basis, monomial_okeys
from charmod.invariants import gdim_bounded, hilbert_series_leads, nu, q_resolution
from charmod.kernel import POS_BITS, scaled_merge
from charmod.resolution import BettiTable, PresentedModule, resolve
from charmod.ring import PolyRing

from conftest import cyclic_quotient, entries, matrix_from_columns, reference_nu


def free_dim(ring, twists, d):
    """k-dimension of the degree-d part of a free module with the given twists."""
    return sum(len(monomial_okeys(ring, d - t)) for t in twists if d >= t)


def check_complex(res):
    for i in range(1, res.length):
        comp = res.diff(i).compose(res.diff(i + 1))
        assert not any(comp.cols), f"d_{i} o d_{i+1} != 0"


def check_exactness_by_dimension(res, M, lo, hi):
    """Euler characteristic of the resolution matches the module degreewise."""
    ring = res.base.cover
    target = hilbert_function_basis(M, lo, hi)
    for off, d in enumerate(range(lo, hi + 1)):
        euler = 0
        for i in range(res.length + 1):
            euler += (-1) ** i * free_dim(ring, res.module(i).twists, d)
        assert euler == target[off], f"Euler mismatch in degree {d}"


def betti_totals(res, steps):
    """Total Betti numbers beta_0 .. beta_{steps-1} of a minimal resolution."""
    rows = res.betti().rows()
    return [sum(v for i, _, v in rows if i == step) for step in range(steps)]


def test_koszul_resolution_golden():
    ring = PolyRing(101, ("x", "y", "z"))
    M = cyclic_quotient(
        ring, [ring.poly("x"), ring.poly("y"), ring.poly("z")])
    res = resolve(M)
    assert res.complete
    assert res.length == 3
    assert sorted(res.betti().entries.items()) == [
        ((0, 0), 1), ((1, 1), 3), ((2, 2), 3), ((3, 3), 1)]
    assert res.module(1).twists == (1, 1, 1)
    assert res.module(3).twists == (3,)
    check_complex(res)
    check_exactness_by_dimension(res, M, 0, 6)
    assert res.projective_dimension() == 3


def test_regular_sequence_of_powers():
    ring = PolyRing(13, ("x", "y"))
    M = cyclic_quotient(ring, [ring.poly("x^2"), ring.poly("y^3")])
    res = resolve(M)
    assert sorted(res.betti().entries.items()) == [
        ((0, 0), 1), ((1, 2), 1), ((1, 3), 1), ((2, 5), 1)]
    check_complex(res)
    check_exactness_by_dimension(res, M, 0, 8)


def test_twisted_cubic_cover_resolution():
    ring = PolyRing(32003, ("w", "x", "y", "z"))
    R = QuotientRing(ring, [ring.poly("x^2-w*y"), ring.poly("y^2-x*z"),
                            ring.poly("x*y-w*z")])
    res = q_resolution(PresentedModule.ring_module(R))
    assert sorted(res.betti().entries.items()) == [
        ((0, 0), 1), ((1, 2), 3), ((2, 3), 2)]
    assert res.projective_dimension() == 2
    check_complex(res)


def test_monomial_pair_cover_resolution():
    ring = PolyRing(32003, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2"), ring.poly("x*y")])
    res = q_resolution(PresentedModule.ring_module(R))
    assert sorted(res.betti().entries.items()) == [
        ((0, 0), 1), ((1, 2), 2), ((2, 3), 1)]
    cover_module = cyclic_quotient(
        ring, [ring.poly("x^2"), ring.poly("x*y")])
    check_exactness_by_dimension(res, cover_module, 0, 6)


def test_residue_field_resolution_totals():
    ring = PolyRing(32003, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2"), ring.poly("x*y")])
    res = resolve(PresentedModule.residue_field(R), max_steps=5)
    assert betti_totals(res, 6) == [1, 2, 3, 5, 8, 13]
    assert not res.complete
    check_complex(res)


def test_hypersurface_residue_field_is_periodic():
    ring = PolyRing(101, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2+y^2")])
    res = resolve(PresentedModule.residue_field(R), max_steps=6)
    assert betti_totals(res, 7) == [1, 2, 2, 2, 2, 2, 2]
    assert not res.complete
    check_complex(res)


def test_free_module_resolves_trivially():
    ring = PolyRing(101, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2+y^2")])
    res = resolve(PresentedModule.free(R, (0, 2)), max_steps=4)
    assert res.length == 0
    assert res.complete
    assert res.module(0).twists == (0, 2)


def test_quotient_base_requires_step_bound():
    ring = PolyRing(101, ("x", "y"))
    R = QuotientRing(ring, [ring.poly("x^2")])
    with pytest.raises(ValueError):
        resolve(PresentedModule.residue_field(R))


def test_minimal_presentation_drops_unit_relations():
    ring = PolyRing(101, ("x", "y"))
    F = GradedFreeModule(ring, (0, 0))
    rel = matrix_from_columns(ring, (0, 0), [[ring.poly("1"), ring.poly("-1")]])
    M = PresentedModule(F, rel)
    assert nu(M) == 1
    mini = M.minimal()
    assert mini.gens.twists == (0,)
    assert mini.rels.source.rank == 0
    res = resolve(M)
    assert sorted(res.betti().entries.items()) == [((0, 0), 1)]


def test_minimality_no_constant_entries():
    ring = PolyRing(32003, ("w", "x", "y", "z"))
    R = QuotientRing(ring, [ring.poly("x^2-w*y"), ring.poly("y^2-x*z"),
                            ring.poly("x*y-w*z")])
    res = resolve(PresentedModule.residue_field(R), max_steps=3)
    for i in range(1, res.length + 1):
        for row in entries(res.diff(i)):
            for f in row:
                assert f.is_zero() or f.degree() >= 1


def test_projective_dimension_goldens():
    ring = PolyRing(101, ("x", "y", "z"))
    k = PresentedModule.residue_field(ring)
    assert q_resolution(k).projective_dimension() == 3
    assert q_resolution(PresentedModule.free(ring, (0, 1))).projective_dimension() == 0
    M = cyclic_quotient(ring, [ring.poly("x*z"), ring.poly("y*z")])
    assert q_resolution(M).projective_dimension() == 2


def test_betti_table_interface():
    t = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2, (3, 4): 0})
    assert t.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert t.rows() == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
    assert t.restrict(1) == BettiTable({(0, 0): 1, (1, 2): 3})
    assert t.restrict(1) != t


def test_resolution_twists_track_generation_degrees():
    # generators of the i-th step sit in the degrees reported by the Betti table
    ring = PolyRing(101, ("x", "y", "z"))
    M = cyclic_quotient(ring, [ring.poly("x*y"), ring.poly("z^2")])
    res = resolve(M)
    for (i, j), count in res.betti().entries.items():
        assert list(res.module(i).twists).count(j) == count


def test_cover_resolutions_exact_on_the_corpus(mixed_corpus):
    # the independent check on the one syzygy engine: d o d = 0 and the
    # Euler characteristic equals the lead-term Hilbert function, for every
    # pool module of the first 10 acceptance instances
    checked = 0
    for doc in mixed_corpus[:10]:
        for name, M in corpus.module_pool(doc):
            res = q_resolution(M)
            assert res.complete, name
            check_complex(res)
            lo, hi = corpus._window(M)
            check_exactness_by_dimension(res, M, lo, hi)
            checked += 1
    assert checked >= 20


def _over(base, M):
    """The presentation of M with its base replaced."""
    gens = GradedFreeModule(base, M.gens.twists)
    src = GradedFreeModule(base, M.rels.source.twists)
    return PresentedModule(gens, GradedMatrix(src, gens, M.rels.cols))


def test_polynomial_ring_is_its_own_zero_quotient(veronese_doc, e2_doc, hypersurface_doc,
                                                  stanley_reisner_doc, mixed_corpus):
    # Q and Q/0 take one code path: the same presentation over the PolyRing
    # and over QuotientRing(Q, []) gives the same relation basis, syzygies,
    # Betti table over the cover, Hilbert series of T(M) and E(M), Tor
    # presentations and G-dimension (with a bound below the resolution's
    # length, which a truncating fork would hit)
    fixtures = (veronese_doc, e2_doc, hypersurface_doc, stanley_reisner_doc)
    presentations = [PresentedModule.ring_module(doc.ring()) for doc in fixtures]
    presentations += [M.q_structure() for doc in fixtures + tuple(mixed_corpus[:10])
                      for _, M in corpus.module_pool(doc)]
    for M in presentations:
        Q = M.base
        assert Q.cover is Q and Q.ideal_columns() == ()
        M0 = _over(QuotientRing(Q, []), M)
        assert M.relation_gb().gb == M0.relation_gb().gb
        rels = [list(c) for c in M.rels.cols]
        assert (syzygy_generators(rels, M.gens, M.rels.source).gb
                == syzygy_generators(rels, M0.gens, M0.rels.source).gb)
        assert q_resolution(M).betti() == q_resolution(M0).betti()
        for route in (char_module, cochar_module):
            assert hilbert_series_leads(route(M)) == hilbert_series_leads(route(M0))
        assert ([(T.gens.twists, T.rels.cols) for T in tor_modules(M)]
                == [(T.gens.twists, T.rels.cols) for T in tor_modules(M0)])
        assert gdim_bounded(M, 1) == gdim_bounded(M0, 1)
    assert len(presentations) == 43
    Q = PolyRing(101, ("x", "y"))
    k = PresentedModule.residue_field(Q)
    k0 = _over(QuotientRing(Q, []), k)
    assert gdim_bounded(k, 1) == gdim_bounded(k0, 1) == {
        "status": "certified", "value": 2, "note": "finite projective dimension"}


def test_polynomial_ring_caches_derived_data(monkeypatch):
    # R's resolution is computed once per base, for Q as for Q/0
    calls = []
    real = invariants.resolve

    def counting(M, max_steps=None):
        calls.append(M)
        return real(M, max_steps)

    monkeypatch.setattr(invariants, "resolve", counting)
    Q = PolyRing(101, ("x", "y"))
    for base in (Q, QuotientRing(Q, [])):
        calls.clear()
        k = PresentedModule.residue_field(base)
        for _ in range(5):
            char_module(k)
        quasi_canonical(base)
        assert len(calls) == 1, base
    assert Q == PolyRing(101, ("x", "y")) and Q.cache
    assert hash(Q) == hash(PolyRing(101, ("x", "y")))


@st.composite
def presentations(draw):
    """A small graded presentation over GF(p)[x,y,z]: up to three generators
    in degrees 0..2 and one to five nonzero homogeneous relations of degree
    at most 4, scalar entries included."""
    p = draw(st.sampled_from([2, 3, 101, 32003]))
    ring = PolyRing(p, ("x", "y", "z"))
    twists = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        deg = draw(st.integers(min(twists), min(twists) + 2))
        col = []
        for t in twists:
            f = ring.poly("0")
            if deg >= t:
                # the first entry that can be nonzero gets a term
                for _ in range(draw(st.integers(0 if any(col) else 1, 2))):
                    a = draw(st.integers(0, deg - t))
                    b = draw(st.integers(0, deg - t - a))
                    f = f + ring.monomial((a, b, deg - t - a - b)) * ring.poly(
                        str(draw(st.integers(1, p - 1))))
            col.append(f)
        cols.append(col)
    rels = matrix_from_columns(ring, twists, cols)
    return PresentedModule(rels.target, rels)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(M=presentations())
def test_resolve_is_an_exact_complex_on_drawn_presentations(M):
    res = resolve(M)
    assert res.complete and res.length <= 3
    check_complex(res)
    lo = min(M.gens.twists)
    check_exactness_by_dimension(res, M, lo, lo + 6)


def _unit_pivot(m):
    """Smallest (row, col) position of a scalar entry, or None."""
    best = None
    for j, col in enumerate(m.cols):
        for k, c in col:
            if term_okey(k) == 0:
                pos = (term_pos(k), j)
                if best is None or pos < best:
                    best = (pos[0], pos[1], c)
    return best


def _schur_cancel(m, r, c, u):
    """Cancel the scalar pivot ``u`` at (r, c): Schur update, delete row/col."""
    ring = m.source.ring
    p = ring.field.p
    ctx = ring.pack.ctx
    uinv = pow(u, p - 2, p)
    pivot = list(m.cols[c])
    new_cols = []
    for j, col in enumerate(m.cols):
        entry = [(term_okey(k), cc) for k, cc in col if term_pos(k) == r]
        if j == c or not entry:
            new_cols.append(list(col))
            continue
        nc = list(col)
        for okey, cc in entry:
            nc = scaled_merge(nc, pivot, (p - cc * uinv % p) % p, okey << POS_BITS, p, ctx)
        new_cols.append(m.base.normal_form_vector(nc))
    tmp = GradedMatrix(m.source, m.target, new_cols)
    return tmp.delete(rows=[r], cols=[c])


def _reference_cancel_units(prev, new):
    """Cancellation with a full rescan and a rebuild after every pivot, then
    the zero columns dropped."""
    while True:
        hit = _unit_pivot(new)
        if hit is None:
            break
        r, c, u = hit
        new = _schur_cancel(new, r, c, u)
        if prev is not None:
            prev = prev.delete(cols=[r])
    zero = [j for j, c in enumerate(new.cols) if not c]
    return prev, (new.delete(cols=zero) if zero else new)


def test_one_pass_cancellation_matches_a_rebuild_per_pivot(monkeypatch, mixed_corpus,
                                                            veronese_doc, e2_doc,
                                                            hypersurface_doc,
                                                            stanley_reisner_doc):
    # minimal() and every resolve step, over R (three steps) and over the
    # cover, on fresh copies of the pool modules so no cache hides a call
    calls = []
    real = resolution._cancel_units

    def recording(prev, new):
        out = real(prev, new)
        calls.append((prev, new, out))
        return out

    monkeypatch.setattr(resolution, "_cancel_units", recording)
    docs = list(mixed_corpus[:10]) + [veronese_doc, e2_doc, hypersurface_doc,
                                      stanley_reisner_doc]
    for doc in docs:
        for _, M in corpus.module_pool(doc):
            resolve(PresentedModule(M.gens, M.rels), max_steps=3)
            Q = M.q_structure()
            resolve(PresentedModule(Q.gens, Q.rels))
    steps = cancelled = 0
    for prev, new, out in calls:
        assert out == _reference_cancel_units(prev, new)
        steps += prev is not None
        cancelled += out[1].target.rank < new.target.rank
    # calls, calls with a previous differential, calls that cancelled a
    # pivot; (233, 92, 34) while the syzygy bases over a quotient ring kept
    # the elements whose leads lie in in(I) * F
    assert (len(calls), steps, cancelled) == (233, 92, 33)


def test_nu_is_the_rank_of_the_scalar_part():
    # e0 + x*e2 and e0 + y*e2 share their scalar part, so only one generator
    # goes; e0 + e1 beside them takes a second, and a unit relation on a
    # cyclic module leaves nothing, over Q and over a quotient alike
    Q = PolyRing(101, ("x", "y"))
    for base in (Q, QuotientRing(Q, [Q.poly("x^2"), Q.poly("x*y")])):
        P = base.poly
        cols = [[P("1"), P("0"), P("x")], [P("1"), P("0"), P("y")], [P("1"), P("1"), P("0")]]
        for k, want in ((2, 2), (3, 1)):
            rels = matrix_from_columns(base, (0, 0, -1), cols[:k])
            M = PresentedModule(rels.target, rels)
            assert M.nu() == reference_nu(M) == want
            assert not M.is_zero()
        unit = cyclic_quotient(base, [P("3")])
        assert unit.nu() == reference_nu(unit) == 0 and unit.is_zero()
