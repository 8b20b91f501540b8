"""Benchmark workloads: inputs made from a seed, items to time, checks.

Each workload turns a seed into a list of items.  An item is one unit a
user waits for (a battery instance, a checker run, a CLI call); running it
returns a JSON-able report and, when the output is wrong, a reason.

Why these three workloads:

* ``battery`` is the acceptance battery, the check users run most.  It
  leans on the rings' caches, and ``homology`` (``iso_probe``, degreewise
  bases) does most of the work while the kernel stays light.
* ``wide`` holds rings in 5 and 6 variables, whose packed keys do not fit
  64 bits.  ``groebner`` elimination syzygies and the pure ``Reducer`` do
  most of the work while ``iso_probe`` and degreewise bases are idle.
* ``cli`` runs one-shot commands on the fixtures.  Every call loads a new
  document, so the same layers get tiny cold inputs, parsing and report
  rendering take a real share, and a cache or set-up cost that pays off
  on ``battery`` but not on single commands shows here.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from charmod import characteristic, cli, corpus
from charmod.cmr import InputDocument, ModuleBlock
from charmod.ring import Polynomial, PolyRing, PrimeField

# The acceptance battery: profile mixed, corpus seed 7, 50 instances, split
# identities on the first 30.  The run's seed does not pick the corpus:
# corpus seeds differ in total work by 3x (with the compiled kernel on a
# 2-core x86-64 box, seeds 1-7 take 2.2-7.0 s, and one instance of seed 5
# alone 3.8 s), which would drown any change in the spread between seeds.
# Instead the seed rescales every variable by a nonzero constant.  That is
# an automorphism preserving every monomial order, so the engine takes the
# same steps on new coefficients; only iso_probe's random trials differ
# (seeds 101 and 102 differ in under 1% of the calls into any layer).
BATTERY_CORPUS_SEED = 7
BATTERY_COUNT = 50
BATTERY_SPLIT = 30

WIDE_VARIABLES = (5, 6)
# primes whose products stay below 2**30, so coefficient arithmetic keeps
# the same cost in CPython whichever prime the seed picks
WIDE_PRIME_RANGE = (20000, 32768)

FIXTURES = ("e2", "hypersurface", "stanley_reisner", "veronese")
SUITES = ("thm8", "gorenstein", "type_formula", "type_formula_depth",
          "cor_id", "cor_artinian", "faithful", "battery")
MODULES = {"e2": ("R", "k", "Rmodx"), "hypersurface": ("R", "k"),
           "stanley_reisner": ("R", "k"), "veronese": ("R", "k")}
# exit codes of every call at the commit that introduced this benchmark;
# 3 is "inconclusive" (a hypothesis of the checked statement is unmet)
CLI_INCONCLUSIVE = {("check", suite, fx)
                    for suite in ("type_formula_depth", "cor_id", "cor_artinian")
                    for fx in FIXTURES} | {("check", "faithful", "veronese")}


class Item:
    """One timed unit: ``run()`` returns ``(report, error or None)``."""

    __slots__ = ("id", "run")

    def __init__(self, item_id, run):
        self.id = item_id
        self.run = run


def _rescale_poly(f: Polynomial, scales, p: int) -> Polynomial:
    """``f(c_1 x_1, ..., c_n x_n)``: same monomials, new coefficients."""
    exps = f.ring.pack.exps
    terms = []
    for okey, c in f.terms:
        for s, e in zip(scales, exps(okey)):
            if e:
                c = c * pow(s, e, p) % p
        terms.append((okey, c))
    return Polynomial(f.ring, terms)


def rescaled(doc: InputDocument, scales) -> InputDocument:
    """The document after the diagonal change of variables ``x_i -> c_i x_i``."""
    p = doc.p
    gens = [_rescale_poly(f, scales, p) for f in doc.ideal_gens]
    blocks = [ModuleBlock(b.name, b.twists,
                          [[_rescale_poly(f, scales, p) for f in row]
                           for row in b.rows])
              for b in doc.modules]
    out = InputDocument(p, doc.variables, doc.order, gens, blocks)
    out._ring = doc.ring()
    return out


def battery_items(seed: int):
    rng = random.Random(f"battery-{seed}")
    items = []
    docs = corpus.generate_corpus(BATTERY_CORPUS_SEED, BATTERY_COUNT, "mixed")
    for i, doc in enumerate(docs):
        scales = [rng.randrange(1, doc.p) for _ in doc.variables]
        item_id = corpus.instance_id("mixed", BATTERY_CORPUS_SEED, i)
        items.append(Item(item_id, _battery_run(rescaled(doc, scales),
                                                item_id, i < BATTERY_SPLIT)))
    return items


def _battery_run(doc, item_id, split):
    def run():
        rep = corpus.corpus_battery(doc, item_id, split=split)
        if rep["verdict"] != "verified":
            return rep, f"verdict {rep['verdict']}: {rep['failures']}"
        if not rep["checks"]["canonical_routes_agree"]:
            return rep, "canonical routes disagree"
        return rep, None
    return run


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        q = rng.randrange(lo | 1, hi, 2)
        if all(q % d for d in range(3, int(q ** 0.5) + 1, 2)):
            return q


def rational_normal_curve(n: int, p: int, scales) -> InputDocument:
    """2x2 minors of [[x0 .. x(n-2)], [x1 .. x(n-1)]], variables rescaled."""
    ring = PolyRing(PrimeField(p), [f"x{i}" for i in range(n)], "grevlex")
    gens = []
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            a = [0] * n
            b = [0] * n
            a[i] += 1
            a[j + 1] += 1
            b[i + 1] += 1
            b[j] += 1
            f = ring.monomial(a) - ring.monomial(b)
            if not f.is_zero():
                gens.append(_rescale_poly(f, scales, p))
    doc = InputDocument(p, ring.variables, "grevlex", gens, [])
    doc._ring = ring
    return doc


def wide_items(seed: int):
    rng = random.Random(f"wide-{seed}")
    p = _random_prime(rng, *WIDE_PRIME_RANGE)
    items = []
    for n in WIDE_VARIABLES:
        scales = [rng.randrange(1, p) for _ in range(n)]
        doc = rational_normal_curve(n, p, scales)
        items.append(Item(f"rnc{n}-p{p}", _wide_run(doc)))
    return items


def _wide_run(doc):
    def run():
        rep = characteristic.check_thm8(doc.quotient())
        out = rep.as_dict()
        if rep.verdict != "verified":
            return out, f"thm8 verdict {rep.verdict}: {rep.notes}"
        return out, None
    return run


def cli_calls():
    """Every command on every fixture, with the exit code each must give."""
    calls = []
    for fx in FIXTURES:
        for cmd in ("gb", "res", "invariants", "canonical"):
            calls.append(((cmd, fx), 0))
        for cmd in ("tmod", "emod"):
            for m in MODULES[fx]:
                calls.append(((cmd, fx, "--module", m), 0))
        for suite in SUITES:
            key = ("check", suite, fx)
            calls.append((key, 3 if key in CLI_INCONCLUSIVE else 0))
    return calls


def cli_items(seed: int, root: Path):
    calls = cli_calls()
    random.Random(f"cli-{seed}").shuffle(calls)
    items = []
    for args, expected in calls:
        fx = args[-1] if args[0] == "check" else args[1]
        path = str(root / "src" / "charmod" / "fixtures" / f"{fx}.cmr")
        argv = [path if a == fx else a for a in args]
        argv += ["--seed", str(seed), "--json"]
        items.append(Item(" ".join(args), _cli_run(argv, args[0], expected)))
    return items


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing_ms"}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def _cli_run(argv, command, expected):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        try:
            rep = _strip_timing(json.loads(out.getvalue()))
        except json.JSONDecodeError as exc:
            return {"exit": code}, f"output is not JSON ({exc}); {err.getvalue()!r}"
        rep["exit"] = code
        if code != expected:
            return rep, f"exit code {code}, expected {expected}"
        if rep.get("command") != command:
            return rep, f"report names command {rep.get('command')!r}"
        return rep, None
    return run


def build(workload: str, seed: int, root: Path):
    if workload == "battery":
        return battery_items(seed)
    if workload == "wide":
        return wide_items(seed)
    if workload == "cli":
        return cli_items(seed, root)
    raise ValueError(f"unknown workload {workload!r}")
