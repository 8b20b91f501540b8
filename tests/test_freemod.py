"""``GradedMatrix`` stores its columns as given, so the sites that multiply
or lift entries reduce them.  These tests record every matrix a battery
builds and check the stated invariant: each column is in normal form modulo
the ideal, and the nonzero columns are homogeneous of one offset from their
twists, which is 0 except for ``hom_realize``'s Hom elements.  The same walk
checks that every ``SubmoduleGB`` basis over a quotient ring is minimal
over it: no lead is divisible by another's or by an ideal lead.
"""

import sys

from charmod import corpus, homology
from charmod.cmr import load, parse
from charmod.freemod import GradedMatrix
from charmod.groebner import QuotientRing, SubmoduleGB
from charmod.kernel import divides, epack
from charmod.ring import PolyRing

from conftest import FIXTURES, hom_on_cyclic_probes, matrix_from_columns

# x is y modulo the ideal, so a variable is not always in normal form
LINEAR_FORM_DOC = """field 101
ring x y z
ideal
x-y
x*z
end
module M twists 0,0
[ x , y ]
[ y*z , z^2 ]
end
"""


def _record(monkeypatch):
    """Every ``GradedMatrix`` built from here on, with whether
    ``hom_realize`` built it."""
    built = []
    init = GradedMatrix.__init__
    realize = homology.hom_realize.__code__

    def recording(self, source, target, cols):
        init(self, source, target, cols)
        built.append((self, sys._getframe(1).f_code is realize))

    monkeypatch.setattr(GradedMatrix, "__init__", recording)
    return built


def _offsets(mat):
    """Degree minus twist of each nonzero column; raises if one is
    inhomogeneous (``vector_degree`` reads only the lead term)."""
    target = mat.target
    for col in mat.cols:
        if not target.vector_is_homogeneous(col):
            raise ValueError(f"{mat!r}: a column is not homogeneous")
    return {target.vector_degree(col) - mat.source.twists[j]
            for j, col in enumerate(mat.cols) if col}


def _violations(built):
    """Descriptions of the recorded matrices that break the invariant."""
    bad = []
    for mat, realized in built:
        nf = mat.base.normal_form_vector
        if any(list(col) != nf(list(col)) for col in mat.cols):
            bad.append(f"{mat!r}: a column is not in normal form")
        offsets = _offsets(mat)
        if len(offsets) > 1 or (offsets - {0} and not realized):
            bad.append(f"{mat!r}: column offsets {sorted(offsets)}")
    return bad


def _bases(monkeypatch):
    """Every ``SubmoduleGB`` built from here on."""
    built = []
    init = SubmoduleGB.__init__

    def recording(self, ambient, gb):
        init(self, ambient, gb)
        built.append(self)

    monkeypatch.setattr(SubmoduleGB, "__init__", recording)
    return built


def _redundant_leads(sub):
    """Leads of ``sub.gb`` divisible by another lead at their position or by
    a lead of the base's ideal."""
    ctx = sub.ambient.ring.pack.ctx
    leads = [v[0][0] for v in sub.gb]
    ideal = [epack(g[0][0] >> 16, ctx) for g in sub.base.ideal_columns()]

    def word(key):
        return epack(key >> 16, ctx)

    return [k for k in leads
            if any(divides(e, word(k), ctx.guards) for e in ideal)
            or any(o != k and not (o ^ k) & 0xFFFF and divides(word(o), word(k), ctx.guards)
                   for o in leads)]


def test_every_matrix_a_battery_builds_is_reduced_and_homogeneous(monkeypatch):
    # fresh documents, so no memo from another test hides a construction,
    # and the Hom of every cyclic probe pair built too
    built = _record(monkeypatch)
    bases = _bases(monkeypatch)
    hom_on_cyclic_probes(monkeypatch)
    docs = [(corpus.instance_id("mixed", 7, i), doc)
            for i, doc in enumerate(corpus.generate_corpus(7, 10, "mixed"))]
    docs += [(name, load(FIXTURES / f"{name}.cmr"))
             for name in ("e2", "hypersurface", "stanley_reisner", "veronese")]
    docs.append(("linear form", parse(LINEAR_FORM_DOC)))
    for name, doc in docs:
        assert corpus.corpus_battery(doc, name)["verdict"] == "verified", name
    assert _violations(built) == []
    # hom_realize's exemption is used: it realizes Hom elements of degree != 0
    assert any(realized and _offsets(mat) - {0} for mat, realized in built)
    quotient = [sub for sub in bases if sub.base.ideal_columns() and sub.gb]
    assert len(quotient) > 500
    assert [sub for sub in quotient if _redundant_leads(sub)] == []


def test_compose_reduces_modulo_the_ideal():
    ring = PolyRing(101, ("x", "y"))
    Q = QuotientRing(ring, [ring.poly("x*y")])
    mx = matrix_from_columns(Q, (0,), [[Q.poly("x")]], col_twists=[1])
    my = matrix_from_columns(Q, (1,), [[Q.poly("y")]], col_twists=[2])
    assert mx.compose(my).cols == ((),)
