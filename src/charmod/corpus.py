"""Seeded random test instances and the per-instance property battery.

``generate_corpus(seed, count, profile)`` produces a deterministic list of
documents (ring plus one random module block ``M``).  Instance ``i`` depends
only on ``(profile, seed, i)``, so a longer run extends a shorter one.

Profiles:

* ``monomial``: random monomial ideals, seeded with squarefree patterns
  that are not Cohen-Macaulay by construction (a plane-and-line ideal
  ``(v1*v3, v2*v3)`` and the socle pattern ``(v1^2, v1*v2)``).
* ``binomial``: homogeneous binomials ``m1 - c*m2``.
* ``ci``: regular sequences, verified by the resolution-length oracle
  (pd of the quotient equals the number of generators); falls back to
  powers of distinct variables when random forms fail the check.
* ``mixed``: draws the profile per instance with tuned weights
  (monomial 0.42, binomial 0.18, ci 0.16, general blend 0.24) so that a
  run of 50 contains a healthy share of non-CM rings.

``corpus_battery`` runs the standard property checks on one document:
both constructions of the characteristic and cocharacteristic module
agree (graded Hilbert functions plus isomorphism probe), the seven
ring conditions are mutually equal, the generator-count formula
nu(E_M) = type(R) * nu(M) holds, and the split identities compose to
the identity matrix.
"""

import random
from typing import Dict, List, Sequence, Tuple

from .ring import PolyRing, Polynomial, PrimeField
from .groebner import Ideal, QuotientRing
from .resolution import PresentedModule
from .cmr import InputDocument, ModuleBlock
from .homology import hilbert_function_basis, iso_probe, monomial_okeys
from . import characteristic, invariants

PROFILES = ("monomial", "binomial", "ci", "mixed")

_PRIMES = (32003, 32003, 101, 13)
_VARS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# random ingredients


def _random_monomial(rng: random.Random, ring: PolyRing, d: int,
                     squarefree: bool = False) -> Polynomial:
    n = ring.n
    exps = [0] * n
    if squarefree and d <= n:
        for i in rng.sample(range(n), d):
            exps[i] = 1
    else:
        for _ in range(d):
            exps[rng.randrange(n)] += 1
    return ring.monomial(exps)


def _random_form(rng: random.Random, ring: PolyRing, d: int,
                 max_terms: int = 3) -> Polynomial:
    """Random nonzero homogeneous polynomial of degree d."""
    pool = monomial_okeys(ring, d)
    k = min(len(pool), rng.randrange(1, max_terms + 1))
    okeys = rng.sample(pool, k)
    p = ring.field.p
    f = ring.zero()
    for okey in okeys:
        f = f + ring.monomial(ring.pack.exps(okey), rng.randrange(1, p))
    return f if not f.is_zero() else ring.monomial(ring.pack.exps(pool[0]))


def _minimalize(gens: List[Polynomial]) -> List[Polynomial]:
    """Drop duplicate and divisibility-redundant monomial generators."""
    out: List[Polynomial] = []
    for g in gens:
        if g.is_zero() or any(g == h for h in out):
            continue
        out.append(g)
    if all(len(g.terms) == 1 for g in out):
        exps = [g.lead_monomial() for g in out]
        out = [g for idx, g in enumerate(out)
               if not any(j != idx and exps[j] != exps[idx]
                          and all(a <= b for a, b in zip(exps[j], exps[idx]))
                          for j in range(len(exps)))]
    return out[:5]


def _monomial_gens(rng: random.Random, ring: PolyRing) -> List[Polynomial]:
    n = ring.n
    gens: List[Polynomial] = []
    roll = rng.random()
    if roll < 0.45 and n >= 2:
        # seed a known non-CM pattern, occasionally with one extra generator
        if n >= 3 and rng.random() < 0.55:
            i, j, k = rng.sample(range(n), 3)
            gens += [ring.var(i) * ring.var(k), ring.var(j) * ring.var(k)]
        else:
            i, j = rng.sample(range(n), 2)
            gens += [ring.var(i) ** 2, ring.var(i) * ring.var(j)]
        extra = 1 if rng.random() < 0.3 else 0
    else:
        extra = rng.randrange(1, 4)
    maxd = 2 if n >= 4 else 3
    for _ in range(extra):
        d = rng.choice((1, 2, 2, 3))
        d = min(d, maxd)
        gens.append(_random_monomial(rng, ring, d,
                                     squarefree=rng.random() < 0.5))
    return _minimalize(gens)


def _binomial_gens(rng: random.Random, ring: PolyRing) -> List[Polynomial]:
    p = ring.field.p
    maxd = 2 if ring.n >= 4 else 3
    gens: List[Polynomial] = []
    for _ in range(rng.randrange(1, 4)):
        d = min(rng.choice((1, 2, 2, 3)), maxd)
        m1 = _random_monomial(rng, ring, d)
        m2 = _random_monomial(rng, ring, d)
        g = m1 - m2.scale(rng.randrange(1, p))
        if not g.is_zero():
            gens.append(g)
    return _minimalize(gens)


def _is_regular_sequence(ring: PolyRing, fs: Sequence[Polynomial]) -> bool:
    """Koszul depth check: pd of the quotient equals the generator count."""
    try:
        R0 = QuotientRing(ring, Ideal(ring, list(fs)))
    except ValueError:
        return False
    res = invariants.q_resolution(invariants.ring_module_of(R0))
    return res.complete and res.length == len(fs)


def _ci_gens(rng: random.Random, ring: PolyRing) -> List[Polynomial]:
    n = ring.n
    r = rng.randrange(1, min(n, 3) + 1)
    maxd = 2 if n >= 4 else 3
    for _ in range(4):
        fs = []
        for _ in range(r):
            d = min(rng.choice((1, 2, 2, 3)), maxd)
            fs.append(_random_form(rng, ring, d))
        if len({str(f) for f in fs}) == r and _is_regular_sequence(ring, fs):
            return fs
    # variable powers always form a regular sequence
    return [ring.var(i) ** min(rng.choice((1, 2, 3)), maxd)
            for i in rng.sample(range(n), r)]


def _general_gens(rng: random.Random, ring: PolyRing) -> List[Polynomial]:
    gens = _monomial_gens(rng, ring)
    if rng.random() < 0.7:
        gens = gens + _binomial_gens(rng, ring)
    return _minimalize(gens)


def _module_block(rng: random.Random, ring: PolyRing) -> ModuleBlock:
    """A random nonzero module: every relation entry has degree >= 1."""
    rank = rng.choice((1, 1, 2))
    if rank == 1:
        twists: Tuple[int, ...] = (0,)
    else:
        twists = (0, rng.choice((0, 1)))
    maxd = 2 if ring.n >= 4 else 3
    rows: List[Tuple[Polynomial, ...]] = []
    for _ in range(rng.randrange(1, 4)):
        d = max(twists) + rng.choice((1, 2))
        row = []
        for t in twists:
            e = d - t
            if rank > 1 and rng.random() < 0.3:
                row.append(ring.zero())
            elif e > maxd:
                row.append(ring.zero())
            else:
                row.append(_random_form(rng, ring, e, max_terms=2))
        if all(f.is_zero() for f in row):
            row[0] = _random_form(rng, ring, min(d - twists[0], maxd),
                                  max_terms=2)
        rows.append(tuple(row))
    return ModuleBlock("M", twists, rows)


# ---------------------------------------------------------------------------
# corpus generation


def _instance(profile: str, seed: int, index: int) -> InputDocument:
    rng = random.Random(f"{profile}-{seed}-{index}")
    p = rng.choice(_PRIMES)
    n = rng.choice((2, 2, 3, 3, 3, 4))
    ring = PolyRing(PrimeField(p), _VARS[:n], "grevlex")

    kind = profile
    if profile == "mixed":
        roll = rng.random()
        if roll < 0.42:
            kind = "monomial"
        elif roll < 0.60:
            kind = "binomial"
        elif roll < 0.76:
            kind = "ci"
        else:
            kind = "general"

    if kind == "monomial":
        gens = _monomial_gens(rng, ring)
    elif kind == "binomial":
        gens = _binomial_gens(rng, ring)
    elif kind == "ci":
        gens = _ci_gens(rng, ring)
    else:
        gens = _general_gens(rng, ring)

    blk = _module_block(rng, ring)
    doc = InputDocument(p, ring.variables, "grevlex", gens, [blk])
    doc._ring = ring
    return doc


def generate_corpus(seed: int, count: int, profile: str) -> List[InputDocument]:
    """Deterministic list of instances for (seed, count, profile)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    return [_instance(profile, seed, i) for i in range(count)]


def instance_id(profile: str, seed: int, index: int) -> str:
    return f"{profile}-{seed}-{index:03d}"


# ---------------------------------------------------------------------------
# per-instance battery


def module_pool(doc: InputDocument) -> List[Tuple[str, PresentedModule]]:
    """The modules every check runs on: R, k and the document's modules."""
    R = doc.quotient()
    pool = [("R", invariants.ring_module_of(R)),
            ("k", invariants.residue_field_of(R))]
    for name in doc.module_names():
        pool.append((name, doc.module(name)))
    return pool


def _window(*mods: PresentedModule, bound: int = 8) -> Tuple[int, int]:
    twists = [t for M in mods for t in M.gens.twists]
    lo = min(twists, default=0)
    return lo, lo + bound


def _hf_agree(A: PresentedModule, B: PresentedModule, lo: int, hi: int) -> bool:
    """Whether A and B have the same Hilbert function on ``lo..hi``.  Equal
    Hilbert series give equal values on any window, so the values are
    compared only when the series differ."""
    return (invariants.hilbert_series_leads(A) == invariants.hilbert_series_leads(B)
            or hilbert_function_basis(A, lo, hi) == hilbert_function_basis(B, lo, hi))


def corpus_battery(doc: InputDocument, instance_id: str = "",
                   degree_bound: int = 8, seed: int = 0,
                   split: bool = True) -> Dict[str, object]:
    """Run the standard property checks on one instance.

    Returns a report dict with per-check results and an aggregate verdict:
    ``verified`` when every check passes, ``refuted`` when any fails.
    """
    R = doc.quotient()
    failures: List[str] = []
    checks: Dict[str, object] = {}

    data = characteristic.quasi_canonical(R)
    checks["canonical_routes_agree"] = data.provenance["agree"]
    if not data.provenance["agree"]:
        failures.append("canonical_routes_agree")

    pool = module_pool(doc)
    pair_reports = {}
    for name, M in pool:
        TM = characteristic.char_module(M)
        HM = characteristic.char_via_hom(M)
        EM = characteristic.cochar_module(M)
        XM = characteristic.cochar_via_tensor(M)
        hf_t = _hf_agree(TM, HM, *_window(TM, HM, bound=degree_bound))
        hf_e = _hf_agree(EM, XM, *_window(EM, XM, bound=degree_bound))
        probe_t = iso_probe(TM, HM, seed=seed).verdict
        probe_e = iso_probe(EM, XM, seed=seed).verdict
        pair_reports[name] = {"hf_char_agree": hf_t, "hf_cochar_agree": hf_e,
                              "probe_char": probe_t, "probe_cochar": probe_e}
        if not (hf_t and hf_e):
            failures.append(f"prop2_hf_{name}")
        if "certified_nonisomorphic" in (probe_t, probe_e):
            failures.append(f"prop2_probe_{name}")
    checks["prop2"] = pair_reports

    extra = [(n, M) for n, M in pool if n not in ("R", "k")]
    thm8 = characteristic.check_thm8(R, extra_modules=extra)
    checks["thm8"] = {"verdict": thm8.verdict,
                      "conditions": thm8.witnesses["conditions"]}
    if thm8.verdict != "verified":
        failures.append("thm8_equivalence")

    nu_reports = {}
    for name, M in pool:
        try:
            rep = characteristic.check_type_formula(R, M)
        except ValueError as exc:  # the formula is stated for M nonzero
            nu_reports[name] = {"verdict": "not_applicable", "notes": [str(exc)]}
            continue
        nu_reports[name] = {"verdict": rep.verdict, **rep.witnesses}
        if rep.verdict != "verified":
            failures.append(f"nu_formula_{name}")
    checks["nu_formula"] = nu_reports

    if split:
        split_reports = {}
        for name, M in pool:
            res = characteristic.split_identity_check(R, M)
            split_reports[name] = res
            if not (res["t_beta_alpha"] and res["beta_e_alpha"]):
                failures.append(f"split_{name}")
        checks["split"] = split_reports

    return {"id": instance_id,
            "ring": {"p": doc.p, "variables": list(doc.variables),
                     "ideal": [str(f) for f in doc.ideal_gens]},
            "is_cm": invariants.is_cohen_macaulay(invariants.ring_module_of(R)),
            "checks": checks,
            "failures": failures,
            "verdict": "verified" if not failures else "refuted"}


# ---------------------------------------------------------------------------
# counterexample hunt


def hunt_counterexample(seed: int, count: int,
                        degree_bound: int = 8) -> Dict[str, object]:
    """Scan for M with M isomorphic to T_M and dim M = dim R over a
    non-Gorenstein ring.  Such an instance would answer a question this
    battery deliberately leaves open; the scan only reports candidates,
    it asserts nothing about their absence.
    """
    scanned = 0
    nongor = 0
    candidates: List[Dict[str, object]] = []
    for i, doc in enumerate(generate_corpus(seed, count, "mixed")):
        scanned += 1
        R = doc.quotient()
        if invariants.is_gorenstein_ring(R):
            continue
        nongor += 1
        Rm = invariants.ring_module_of(R)
        dim_r = invariants.dimension(Rm)
        pool = module_pool(doc) + [("T_R", characteristic.char_module(Rm))]
        for name, M in pool:
            if M.is_zero():
                continue
            TM = characteristic.char_module(M)
            probe, shift = characteristic.iso_probe_shifted(M, TM, seed=seed)
            if (probe.verdict == "probably_isomorphic" and not TM.is_zero()
                    and invariants.dimension(M) == dim_r):
                candidates.append({
                    "id": instance_id("mixed", seed, i),
                    "module": name,
                    "dim": dim_r,
                    "shift": shift,
                    "ideal": [str(f) for f in doc.ideal_gens]})
    return {"scanned": scanned, "non_gorenstein": nongor,
            "candidates": candidates}
