"""Numerical invariants of graded modules: Hilbert series, dimension,
depth, minimal generator counts, Cohen-Macaulay type, annihilators,
Poincare and Bass series, and bounded Gorenstein-dimension evidence.

The Hilbert series has one route: a lead-term recursion on the standard
monomial complement of the relation basis (Bayer-Stillman pivots).  It
gives the series in reports, the Krull dimension, and every degreewise
dimension the package uses (``homology.hilbert_function_basis``).  The test
suite cross-checks it against the alternating sum of twists of a minimal
resolution over the cover ring, and against enumerating the standard
monomials degree by degree (``homology.module_basis``).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

from .freemod import term_okey, term_pos
from .groebner import Ideal, intersect_ideals, quotient
from .resolution import FreeResolution, PresentedModule, cached, resolve


class HilbertSeries:
    """Hilbert series as numerator / (1-t)^nvars, numerator a Laurent
    polynomial in t stored as {degree: coefficient}."""

    __slots__ = ("numerator", "nvars")

    def __init__(self, numerator: Dict[int, int], nvars: int):
        self.numerator = {d: c for d, c in numerator.items() if c}
        self.nvars = nvars

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and other.numerator == self.numerator
            and other.nvars == self.nvars
        )

    def __hash__(self):
        return hash((tuple(sorted(self.numerator.items())), self.nvars))

    def __repr__(self):
        return f"HilbertSeries({self.numerator}, nvars={self.nvars})"

    def rows(self) -> List[List[int]]:
        """Canonical [degree, coefficient] rows of the numerator."""
        return [[d, self.numerator[d]] for d in sorted(self.numerator)]

    def value(self, d: int) -> int:
        """The Hilbert function at degree d."""
        n = self.nvars
        total = 0
        for j, c in self.numerator.items():
            k = d - j
            if k >= 0:
                total += c * comb(k + n - 1, n - 1)
        return total

    def values(self, lo: int, hi: int) -> List[int]:
        return [self.value(d) for d in range(lo, hi + 1)]

    def dimension(self) -> int:
        """Krull dimension: nvars minus the order of vanishing at t=1.

        The zero module has dimension -1 by convention.
        """
        if not self.numerator:
            return -1
        num = dict(self.numerator)
        order = 0
        while sum(num.values()) == 0:
            # divide by (1 - t): synthetic division from the lowest degree
            lo = min(num)
            hi = max(num)
            out: Dict[int, int] = {}
            run = 0
            for d in range(lo, hi + 1):
                run += num.get(d, 0)
                if run:
                    out[d] = run
            # after full division the top coefficient telescopes away
            out.pop(hi, None)
            num = out if out else {}
            order += 1
            if not num:
                break
        return self.nvars - order


@cached
def ring_module_of(base) -> PresentedModule:
    """The base ring as a module over itself, cached on the base (so derived
    invariants are computed once)."""
    return PresentedModule.ring_module(base)


@cached
def residue_field_of(base) -> PresentedModule:
    """The residue field as a module over the base, cached on the base."""
    return PresentedModule.residue_field(base)


@cached
def q_resolution(M: PresentedModule) -> FreeResolution:
    """Minimal resolution over the cover polynomial ring, cached."""
    return resolve(M.q_structure())


# -- the lead-term route ------------------------------------------------------


def _minimalize_monomials(gens: frozenset) -> frozenset:
    out = []
    items = sorted(gens)
    for g in items:
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in items):
            out.append(g)
    return frozenset(out)


@lru_cache(maxsize=None)
def _monomial_numerator(gens: frozenset, n: int) -> Tuple[Tuple[int, int], ...]:
    """Hilbert numerator of Q/(monomial ideal), as sorted (deg, coeff) pairs."""
    gens = _minimalize_monomials(gens)
    if not gens:
        return ((0, 1),)
    if any(sum(g) == 0 for g in gens):
        return ()
    pures = [g for g in gens if sum(1 for e in g if e) == 1]
    if len(pures) == len(gens):
        # product of (1 - t^deg) over pure powers of distinct variables
        acc = {0: 1}
        for g in gens:
            d = sum(g)
            nxt = dict(acc)
            for j, c in acc.items():
                nxt[j + d] = nxt.get(j + d, 0) - c
            acc = {k: v for k, v in nxt.items() if v}
        return tuple(sorted(acc.items()))
    # split on the most frequent variable among mixed-support generators
    counts = [0] * n
    for g in gens:
        if sum(1 for e in g if e) > 1:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
    i = max(range(n), key=lambda t: (counts[t], -t))
    var = tuple(1 if t == i else 0 for t in range(n))
    plus = frozenset(g for g in gens if g[i] == 0) | {var}
    colon = frozenset(tuple(max(e - 1, 0) if t == i else e for t, e in enumerate(g))
                      for g in gens)
    a = dict(_monomial_numerator(plus, n))
    for d, c in _monomial_numerator(colon, n):
        a[d + 1] = a.get(d + 1, 0) + c
    return tuple(sorted((k, v) for k, v in a.items() if v))


@cached
def hilbert_series_leads(M: PresentedModule) -> HilbertSeries:
    """Hilbert series from the lead terms of the relation basis and of the
    defining ideal at every position, cached."""
    ring = M.ring
    n = ring.n
    ideal = [ring.pack.exps(term_okey(g[0][0])) for g in M.base.ideal_columns()]
    per_pos: Dict[int, list] = {pos: list(ideal) for pos in range(M.gens.rank)}
    for v in M.relation_gb().gb:
        key = v[0][0]
        per_pos[term_pos(key)].append(ring.pack.exps(term_okey(key)))
    num: Dict[int, int] = {}
    for pos, tw in enumerate(M.gens.twists):
        part = _monomial_numerator(frozenset(map(tuple, per_pos[pos])), n)
        for d, c in part:
            num[d + tw] = num.get(d + tw, 0) + c
    return HilbertSeries(num, n)


# -- invariants -------------------------------------------------------------


@cached
def dimension(M: PresentedModule) -> int:
    """Krull dimension of the module; -1 for the zero module."""
    return hilbert_series_leads(M).dimension()


@cached
def depth_module(M: PresentedModule) -> int:
    """Depth via the Auslander-Buchsbaum formula over the cover ring."""
    if M.is_zero():
        raise ValueError("depth of the zero module is undefined")
    return M.ring.n - q_resolution(M).projective_dimension()


def nu(M: PresentedModule) -> int:
    """Minimal number of generators; 0 for the zero module."""
    return M.nu()


def _k_resolution(base, steps: int) -> FreeResolution:
    """Truncated minimal resolution of the residue field, cached per base."""
    have = base.cache.get("k_resolution")
    if have is not None and (have.complete or have.length >= steps):
        return have
    res = resolve(residue_field_of(base), max_steps=steps)
    base.cache["k_resolution"] = res
    return res


@cached
def type_of(M: PresentedModule) -> int:
    """Cohen-Macaulay type dim_k Ext^t(k, M), t = depth M: the last Betti
    number of M over the cover ring Q.  For a maximal M-sequence x,
    Ext^t(k, M) = Hom(k, M/xM) over Q and over R (Bruns-Herzog, Lemma
    1.2.4); over Q, Koszul self-duality gives Ext^t_Q(k, M) =
    Tor^Q_{n-t}(k, M), and n - t = pd_Q M (Auslander-Buchsbaum)."""
    if M.is_zero():
        raise ValueError("type of the zero module is undefined")
    res = q_resolution(M)
    return res.module(res.projective_dimension()).rank


def cm_defect(M: PresentedModule) -> int:
    return dimension(M) - depth_module(M)


def is_cohen_macaulay(M: PresentedModule) -> bool:
    return cm_defect(M) == 0


def annihilator(M: PresentedModule) -> Ideal:
    """Annihilator ideal, by intersecting colon ideals of the generators."""
    base = M.base
    if M.gens.rank == 0:
        return Ideal(base, [base.cover.one()])
    gb = M.relation_gb()
    out: Optional[Ideal] = None
    for i in range(M.gens.rank):
        col = quotient(gb, M.gens.basis_vector(i))
        out = col if out is None else intersect_ideals(out, col)
    return out


def poincare_bass(M: PresentedModule, bound: int = 6) -> Dict[str, List[int]]:
    """Truncated Poincare and Bass series over the base.

    ``poincare[i]`` is the i-th Betti number of M over the base (ranks in a
    minimal resolution); ``bass[i]`` is the standard Bass number
    ``dim_k Ext^i(k, M)``.  Beware that some sources define Bass numbers
    with the arguments swapped, which would give Betti numbers of M over
    the base instead; this implementation uses the Ext(k, M) convention.
    """
    if M.is_zero():
        return {"poincare": [0] * (bound + 1), "bass": [0] * (bound + 1)}
    res = resolve(M, max_steps=bound)
    poincare = [res.module(i).rank for i in range(bound + 1)]
    from .homology import hom_cohomology
    kres = _k_resolution(M.base, bound + 1)
    bass = [H.nu() for H in hom_cohomology(kres, M, 0, bound)]
    return {"poincare": poincare, "bass": bass}


def gdim_bounded(M: PresentedModule, bound: int = 6) -> Dict[str, object]:
    """Bounded Gorenstein-dimension information.

    Returns a dict with ``status`` one of ``certified`` (exact value in
    ``value``), ``bounded_evidence`` (finite and at most ``value`` as far as
    Ext vanishing was observed), or ``inconclusive``.
    """
    from .homology import hom_cohomology
    if M.is_zero():
        return {"status": "certified", "value": 0,
                "note": "zero module"}
    base = M.base
    res = resolve(M) if base.is_polynomial_ring() else resolve(M, max_steps=bound)
    if res.complete:
        return {"status": "certified", "value": res.projective_dimension(),
                "note": "finite projective dimension"}
    ring_mod = ring_module_of(base)
    if is_gorenstein_ring(base):
        value = depth_module(ring_mod) - depth_module(M)
        return {"status": "certified", "value": value,
                "note": "Gorenstein base ring: G-dim = depth R - depth M"}
    # evidence: Ext^i(M, R) vanishing as far as the truncation can see
    # (the last step of a truncated resolution cannot witness a kernel)
    vanish = [H.is_zero()
              for H in hom_cohomology(res, ring_mod, 1, min(bound, res.length - 1))]
    if all(vanish) and vanish:
        return {"status": "bounded_evidence", "value": 0,
                "note": f"Ext^i(M, R) = 0 for 1 <= i <= {len(vanish)}"}
    if vanish and not all(vanish):
        j = 1 + vanish.index(False)
        return {"status": "inconclusive", "value": None,
                "note": f"Ext^{j}(M, R) != 0; no bound certified"}
    return {"status": "inconclusive", "value": None,
            "note": "no structural criterion applied within the bound"}


def module_report(M: PresentedModule) -> Dict[str, object]:
    """Standard invariant bundle for reports."""
    if M.is_zero():
        return {"dim": -1, "depth": None, "pd_q": None, "nu": 0, "type": None,
                "cmd": None, "is_cm": None,
                "betti": [], "hilbert_numerator": []}
    resq = q_resolution(M)
    hs = hilbert_series_leads(M)
    return {
        "dim": dimension(M),
        "depth": depth_module(M),
        "pd_q": resq.projective_dimension(),
        "nu": nu(M),
        "type": type_of(M),
        "cmd": cm_defect(M),
        "is_cm": is_cohen_macaulay(M),
        "betti": resq.betti().rows(),
        "hilbert_numerator": hs.rows(),
    }


def ring_report(R) -> Dict[str, object]:
    """Invariant bundle for the quotient ring itself."""
    Rm = ring_module_of(R)
    rep = module_report(Rm)
    rep["is_gorenstein"] = bool(rep["is_cm"] and rep["type"] == 1)
    return rep


def is_gorenstein_ring(R) -> bool:
    Rm = ring_module_of(R)
    return is_cohen_macaulay(Rm) and type_of(Rm) == 1
