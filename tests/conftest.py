import hashlib
import importlib.util
import shutil
import subprocess
import sysconfig
import time
from pathlib import Path

import pytest

from charmod import corpus as corpus_mod
from charmod import homology as homology_mod
from charmod import kernel
from charmod.cmr import load
from charmod.freemod import GradedFreeModule, GradedMatrix, term_key, term_okey, term_pos
from charmod.groebner import QuotientRing, buchberger, syzygy_generators
from charmod.homology import ModuleMap, _grafted, _grid, copy_shift, homology_at, subquotient
from charmod.invariants import _k_resolution
from charmod.kernel import POS_BITS, scaled_merge
from charmod.resolution import PresentedModule
from charmod.ring import Polynomial, PolyRing

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "charmod" / "fixtures"
KERNEL_C = FIXTURES.parent / "kernel" / "_fast.c"
# the test build of KERNEL_C: unoptimized, so memory checks see every access,
# and warning-free
CFLAGS = ("-O0", "-Wall", "-Wextra", "-Werror", "-fwrapv", "-fPIC", "-shared")


def exps_of_degree(rng, n, d):
    """A random exponent tuple of ``n`` entries and total degree ``d``."""
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, d)))


def monomial_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def monomial_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def matrix_from_columns(base, target_twists, cols_polys, col_twists=None):
    """The homogeneous matrix whose columns are lists of polynomials, reduced
    modulo the base's ideal; column twists default to the columns' degrees,
    and given ones must match them."""
    target = GradedFreeModule(base, target_twists)
    cols = [base.normal_form_vector(target.vector_from_polys(c)) for c in cols_polys]
    degrees = [target.vector_degree(c) if c else 0 for c in cols]
    if col_twists is None:
        col_twists = degrees
    assert all(d == t for c, d, t in zip(cols, degrees, col_twists) if c), \
        f"column degrees {degrees} differ from the twists {col_twists}"
    return GradedMatrix(GradedFreeModule(base, col_twists), target, cols)


def entry(mat, i, j):
    """The entry of a ``GradedMatrix`` in row i and column j, as a polynomial."""
    return Polynomial(mat.source.ring, [(term_okey(k), c) for k, c in mat.cols[j]
                                        if term_pos(k) == i])


def entries(mat):
    """All entries of a ``GradedMatrix``, row by row."""
    return [[entry(mat, i, j) for j in range(mat.source.rank)]
            for i in range(mat.target.rank)]


def reference_copies(outer_twists, M):
    """The direct sum of the copies ``M(t)``, one per outer twist t, built
    by position arithmetic: grid position ``a*rank(M) + j`` is generator j
    of copy a, and copy a carries M's relations with each position p moved
    to ``a*rank(M) + p``.  The reference for ``homology``'s grids and
    copy-shifted relations."""
    rM = M.gens.rank
    gens = GradedFreeModule(M.base, [b + t for t in outer_twists for b in M.gens.twists])
    cols = [sorted(((term_key(term_okey(k), a * rM + term_pos(k)), c) for k, c in col),
                   reverse=True)
            for a in range(len(outer_twists)) for col in M.rels.cols]
    twists = [r + t for t in outer_twists for r in M.rels.source.twists]
    return PresentedModule(gens, GradedMatrix(GradedFreeModule(M.base, twists), gens, cols))


def hom_map(d, M):
    """``Hom(d, M) : Hom(G, M) -> Hom(F, M)`` for a free matrix ``d : F -> G``,
    built directly: the reference for ``d.transpose_dual() (x) M``.

    Both sides are copies of M twisted down; grid position ``a*rank(M) + j``
    sends basis vector a of the free module to generator j of M, and
    precomposing with d moves the entry ``d[a, b]`` to position
    ``b*rank(M) + j``.
    """
    rM = M.gens.rank
    src = reference_copies([-t for t in d.target.twists], M)
    tgt = reference_copies([-t for t in d.source.twists], M)
    cols = [[] for _ in range(src.gens.rank)]
    for b in range(d.source.rank):
        for key, c in d.cols[b]:
            a = term_pos(key)
            okey = term_okey(key)
            for j in range(rM):
                cols[a * rM + j].append((term_key(okey, b * rM + j), c))
    cols = [sorted(col, reverse=True) for col in cols]
    if d.base != M.base:
        cols = [M.base.normal_form_vector(col) for col in cols]
    mat = GradedMatrix(src.gens, tgt.gens, cols)
    return ModuleMap(src, tgt, mat, check=False)


def cyclic_quotient(base, ideal_gens):
    """``base / (ideal_gens)`` as a cyclic presented module."""
    rels = matrix_from_columns(base, [0], [[f] for f in ideal_gens if f])
    return PresentedModule(rels.target, rels)


def rational_normal_curve(n):
    """GF(32003)[x0..x(n-1)] modulo the 2x2 minors of
    ``[[x0 .. x(n-2)], [x1 .. x(n-1)]]``, unrescaled."""
    ring = PolyRing(32003, [f"x{i}" for i in range(n)])
    minors = [ring.monomial([(k == i) + (k == j + 1) for k in range(n)])
              - ring.monomial([(k == i + 1) + (k == j) for k in range(n)])
              for i in range(n - 1) for j in range(i + 1, n - 1)]
    return QuotientRing(ring, minors)


def presented_kernel(f):
    """Kernel of a map of presented modules, as a subquotient of the domain:
    the syzygies of the matrix's columns modulo the codomain's relations,
    whose reduced basis with the domain's relations is the numerator."""
    A, B = f.domain, f.codomain
    ker = syzygy_generators([list(c) for c in f.matrix.cols], B.gens, A.gens,
                            extra_unmarked=[list(c) for c in B.rels.cols]).gb
    den = [list(c) for c in A.rels.cols]
    return subquotient(buchberger([list(g) for g in ker] + den, A.gens), den)


def cokernel(f):
    """The codomain of a map of presented modules modulo its image: the
    matrix's columns, then the codomain's relations."""
    B = f.codomain
    cols = [list(c) for c in f.matrix.cols] + [list(c) for c in B.rels.cols]
    twists = list(f.matrix.source.twists) + list(B.rels.source.twists)
    src = GradedFreeModule(B.base, twists)
    return PresentedModule(B.gens, GradedMatrix(src, B.gens, cols))


def is_injective(f):
    """Whether a map of presented modules has zero kernel."""
    return presented_kernel(f).is_zero()


def hom_on_cyclic_probes(monkeypatch):
    """Make each ``iso_probe`` that reads Hom(Am, Bm) in degree 0 off two
    cyclic modules' relation bases also build ``_hom(Am, Bm, upto=0)`` and
    its degree-0 basis, as its general branch does, at the same point: so a
    recorder of what the battery builds sees that Hom on every probe pair.
    The basis must be as long as the one the relation bases give."""
    real = homology_mod._winning_trial

    def winning_trial(Am, Bm, size, realize, seed):
        if Am.gens.rank == 1 and Am.gens == Bm.gens:
            H = homology_mod._hom(Am, Bm, upto=0)
            assert len(homology_mod.module_basis(H, 0)) == size
        return real(Am, Bm, size, realize, seed)

    monkeypatch.setattr(homology_mod, "_winning_trial", winning_trial)


def homology_calls(monkeypatch):
    """(d, M, into, upto) of every ``_homology`` call with a nonzero grid
    ``d.target (x) M`` that the battery, split identities included, makes
    on fresh copies of the pool documents: the first 10 acceptance
    instances and the four fixtures, with the Hom of every cyclic probe
    pair built too (``hom_on_cyclic_probes``).  A document used before
    keeps its routes memoized in its ring and makes fewer calls."""
    calls = []
    real = homology_mod._homology
    real_trial = homology_mod._winning_trial
    hom_on_cyclic_probes(monkeypatch)

    def recording(d, M, into=None, upto=None):
        if d.target.rank * M.gens.rank:
            calls.append((d, M, into, upto))
        return real(d, M, into, upto)

    docs = corpus_mod.generate_corpus(7, 10, "mixed") + [
        load(FIXTURES / f"{name}.cmr")
        for name in ("veronese", "e2", "hypersurface", "stanley_reisner")]
    monkeypatch.setattr(homology_mod, "_homology", recording)
    for doc in docs:
        corpus_mod.corpus_battery(doc)
    monkeypatch.setattr(homology_mod, "_homology", real)
    monkeypatch.setattr(homology_mod, "_winning_trial", real_trial)
    return calls


def cycles_elimination(d, M):
    """The inputs of the cycles elimination of ``_homology(d, M)``: d's
    grafted columns, the grids of ``d.target (x) M`` and ``d.source (x) M``,
    the relation columns of the copies in the first, and their known block,
    M's relation basis moved copy by copy and sorted descending.  M's
    relation basis is computed here when M does not hold it."""
    rM, count = M.gens.rank, d.target.rank
    block = sorted(copy_shift(M.relation_gb().gb, count, rM), reverse=True)
    return (_grafted(d, M), _grid(d.target.twists, M), _grid(d.source.twists, M),
            copy_shift(M.rels.cols, count, rM), block)


def ext_k_module(M, i):
    """Ext^i(k, M) over the base of M, minimally presented: the reference
    route to depth and type, through a resolution of the residue field."""
    res = _k_resolution(M.base, i + 1)
    return homology_at(res.diff(i + 1).transpose_dual(), res.diff(i).transpose_dual(), M)


def vector_coords(M, v, basis_index):
    """Coordinates of an element (given as an ambient vector) in a degree
    basis, as a sparse row ``{basis index: coefficient}``."""
    return {basis_index[key]: c for key, c in M.relation_gb().normal_form(list(v))}


def componentwise_normal_form_vector(base, v):
    """The normal form of a vector modulo the base's ideal, one component
    at a time through the ideal's own basis: the reference for
    ``QuotientRing.normal_form_vector``."""
    coords = {}
    for key, c in v:
        coords.setdefault(term_pos(key), []).append((term_okey(key), c))
    out = []
    for pos, terms in coords.items():
        f = base.ideal.normal_form(Polynomial(base.cover, sorted(terms, reverse=True)))
        out += [(term_key(okey, pos), c) for okey, c in f.terms]
    return sorted(out, reverse=True)


def reference_nu(M):
    """Minimal number of generators by cancelling units: the reference for
    ``PresentedModule.nu``, which counts by graded Nakayama."""
    return M.minimal().gens.rank


def reference_is_surjective(f):
    """Whether a map of presented modules is onto, by cancelling units in
    its cokernel: the reference for ``ModuleMap.is_surjective``."""
    return reference_nu(cokernel(f)) == 0


def times_poly(v, f, ctx, p):
    """The vector ``f * v`` for a polynomial ``f``, term by term."""
    out = []
    for okey, c in f.terms:
        out = scaled_merge(out, v, c, okey << POS_BITS, p, ctx)
    return out


@pytest.fixture(scope="session")
def fast_module(request, tmp_path_factory):
    """The compiled kernel module.

    An installed extension is used as is.  Otherwise the committed
    ``_fast.c`` is compiled with ``gcc -O0`` (``CFLAGS``: every warning is
    an error) into pytest's cache directory, once per content hash and
    flags, and loaded from there; with no build cached, the test skips
    when gcc or the Python headers are missing.
    """
    if kernel.HAVE_FAST:
        return kernel._fast
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256(KERNEL_C.read_bytes() + " ".join(CFLAGS).encode()
                            + suffix.encode()).hexdigest()[:16]
    cache = getattr(request.config, "cache", None)
    root = cache.mkdir("charmod-kernel") if cache else tmp_path_factory.mktemp("kernel")
    target = Path(root) / digest / f"_fast{suffix}"
    if not target.exists():
        include = Path(sysconfig.get_paths()["include"])
        if shutil.which("gcc") is None or not (include / "Python.h").exists():
            pytest.skip("gcc or the Python headers are missing")
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        res = subprocess.run(["gcc", *CFLAGS, f"-I{include}", str(KERNEL_C), "-o", str(tmp)],
                             capture_output=True, text=True)
        if res.returncode != 0:
            pytest.fail(f"compiling _fast.c failed:\n{res.stderr[-2000:]}")
        tmp.replace(target)
    spec = importlib.util.spec_from_file_location("charmod.kernel._fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_kernel(fast_module, monkeypatch):
    """Route ``make_reducer`` and ``scaled_merge`` to the compiled kernel."""
    monkeypatch.setattr(kernel, "_fast", fast_module)
    monkeypatch.setattr(kernel, "HAVE_FAST", True)
    return fast_module


@pytest.fixture(scope="session")
def veronese_doc():
    return load(FIXTURES / "veronese.cmr")


@pytest.fixture(scope="session")
def e2_doc():
    return load(FIXTURES / "e2.cmr")


@pytest.fixture(scope="session")
def hypersurface_doc():
    return load(FIXTURES / "hypersurface.cmr")


@pytest.fixture(scope="session")
def stanley_reisner_doc():
    return load(FIXTURES / "stanley_reisner.cmr")


@pytest.fixture(scope="session")
def mixed_corpus():
    """The acceptance corpus: profile mixed, seed 7, 50 instances."""
    return corpus_mod.generate_corpus(7, 50, "mixed")


@pytest.fixture(scope="session")
def mixed_battery(mixed_corpus):
    """Battery reports over the acceptance corpus.

    Split identities are exercised on the first 30 instances (the
    acceptance quota); the cheaper checks run on all 50.  The elapsed
    wall time for the whole run is attached for the timing criteria.
    """
    t0 = time.perf_counter()
    reports = []
    for i, doc in enumerate(mixed_corpus):
        reports.append(corpus_mod.corpus_battery(
            doc, corpus_mod.instance_id("mixed", 7, i), split=(i < 30)))
    elapsed = time.perf_counter() - t0
    return {"reports": reports, "elapsed": elapsed}
