"""Command-line driver: parse documents, dispatch commands, emit reports.

Commands::

    charmod gb DOC.cmr
    charmod res DOC.cmr [--module NAME] [--max-steps N]
    charmod invariants DOC.cmr [--module NAME]
    charmod tmod DOC.cmr --module NAME
    charmod emod DOC.cmr --module NAME
    charmod canonical DOC.cmr
    charmod check SUITE DOC.cmr [--module NAME]
    charmod corpus PROFILE --seed S --count N
    charmod hunt-counterexample --seed S --count N

Check suites: ``thm8``, ``gorenstein``, ``type_formula``,
``type_formula_depth``, ``cor_id``, ``cor_artinian``, ``faithful``,
``battery``.  Module-level suites run on ``--module`` when given, else on
R, k and every module block of the document (members whose hypotheses are
not met are reported as not_applicable).

Exit codes: 0 success/verified, 1 refuted, 2 input error (also a
``--count`` or ``--max-steps`` below 1 or a ``--degree-bound`` below 0),
3 inconclusive, 4 resource limit (a degree past the packing cap, a
resolution past its step limit), 5 internal error (any other exception;
its traceback goes to stderr).  With ``--json`` codes 2, 4 and 5 print
``{"command", "id", "error": {"kind", "message"}}`` with kind ``input``,
``resource_limit`` or ``internal``; without it the message goes to stderr.

JSON reports are deterministic for fixed (command, document, seed, flags)
except for ``timing_ms`` fields.  The corpus command fans instances out to
a process pool (capped by the ``CHARMOD_THREADS`` environment variable)
and merges reports in instance order.
"""

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import characteristic, corpus, invariants
from .cmr import InputDocument, load, parse
from .homology import hilbert_function_basis
from .resolution import ResolutionLimitError, resolve

_EXIT = {"verified": 0, "ok": 0, "refuted": 1, "inconclusive": 3}

# exit code -> (JSON error kind, stderr prefix)
_ERRORS = {2: ("input", "error: "),
           4: ("resource_limit", "error: resource limit: "),
           5: ("internal", "error: internal: ")}

_CHECK_SUITES = ("thm8", "gorenstein", "type_formula", "type_formula_depth",
                 "cor_id", "cor_artinian", "faithful", "battery")

_MODULE_CHECKERS = {
    "type_formula": characteristic.check_type_formula,
    "type_formula_depth": characteristic.check_type_formula_depth,
    "cor_id": characteristic.check_cor_id,
    "cor_artinian": characteristic.check_cor_artinian,
    "faithful": characteristic.check_faithful,
}


class InputError(Exception):
    pass


def _read_document(path: str) -> Tuple[str, InputDocument]:
    if path == "-":
        return "stdin", parse(sys.stdin.read())
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    return p.stem, load(p)


def _require_module(args) -> str:
    if not args.module:
        raise InputError("missing module name (use --module NAME)")
    return args.module


def _check_options(args) -> None:
    """Reject a count or a step limit below 1 and a degree window below 0."""
    for flag, value, least in (("--count", args.count, 1),
                               ("--max-steps", args.max_steps, 1),
                               ("--degree-bound", args.degree_bound, 0)):
        if value is not None and value < least:
            raise InputError(f"{flag} must be at least {least}, got {value}")


def _get_module(doc: InputDocument, name: str):
    try:
        return doc.module(name)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None


# ---------------------------------------------------------------------------
# command implementations (each returns a report dict; "verdict" drives the
# exit code and defaults to "ok")


def _cmd_gb(doc: InputDocument, args) -> Dict[str, object]:
    R = doc.quotient()
    gb = R.ideal_gb_polys()
    return {"gb": [str(g) for g in gb], "count": len(gb)}


def _cmd_res(doc: InputDocument, args) -> Dict[str, object]:
    R = doc.quotient()
    if args.module:
        M = _get_module(doc, args.module)
        steps = args.max_steps if args.max_steps is not None else doc.ring().n + 1
        res = resolve(M, max_steps=steps)
        over = "R"
    else:
        M = invariants.ring_module_of(R)
        res = invariants.q_resolution(M)
        over = "Q"
    return {"module": args.module, "over": over,
            "length": res.length, "complete": res.complete,
            "betti": res.betti().rows()}


def _cmd_invariants(doc: InputDocument, args) -> Dict[str, object]:
    R = doc.quotient()
    if args.module:
        rep = invariants.module_report(_get_module(doc, args.module))
        rep["module"] = args.module
        return rep
    return invariants.ring_report(R)


def _derived_module(doc: InputDocument, args, route) -> Dict[str, object]:
    """Invariants and a Hilbert-function window of ``route(--module)``."""
    N = route(_get_module(doc, _require_module(args)))
    rep = invariants.module_report(N)
    rep["module"] = args.module
    lo = min(N.gens.twists, default=0)
    rep["hf_from"] = lo
    rep["hilbert_function"] = hilbert_function_basis(N, lo, lo + args.degree_bound)
    return rep


def _cmd_tmod(doc: InputDocument, args) -> Dict[str, object]:
    return _derived_module(doc, args, characteristic.char_module)


def _cmd_emod(doc: InputDocument, args) -> Dict[str, object]:
    return _derived_module(doc, args, characteristic.cochar_module)


def _cmd_canonical(doc: InputDocument, args) -> Dict[str, object]:
    R = doc.quotient()
    data = characteristic.quasi_canonical(R)
    rep = invariants.module_report(data.E)
    rep["s"] = data.s
    rep["routes_agree"] = bool(data.provenance["agree"])
    rep["is_free"] = (data.E.rels.source.rank == 0 and data.E.gens.rank > 0)
    return rep


def _aggregate(verdicts: List[str]) -> str:
    real = [v for v in verdicts if v in ("verified", "refuted", "inconclusive")]
    if not real:
        return "inconclusive"
    if "refuted" in real:
        return "refuted"
    if "inconclusive" in real:
        return "inconclusive"
    return "verified"


def _entry(module: Optional[str], rep) -> Dict[str, object]:
    """One checker run, as an entry of a check report."""
    return {"module": module, "checker": rep.checker, "verdict": rep.verdict,
            "witness": rep.witnesses, "notes": rep.notes}


def _cmd_check(doc: InputDocument, args) -> Dict[str, object]:
    suite = args.suite
    R = doc.quotient()
    reports: List[Dict[str, object]] = []

    if suite == "thm8":
        extra = [(n, doc.module(n)) for n in doc.module_names()]
        reports.append(_entry(None, characteristic.check_thm8(R, extra_modules=extra)))
    elif suite == "gorenstein":
        reports.append(_entry(None, characteristic.check_gorenstein(R)))
    elif suite == "battery":
        bat = corpus.corpus_battery(doc, instance_id=args.instance_id,
                                    degree_bound=args.degree_bound,
                                    seed=args.seed)
        return {"suite": suite, "verdict": bat["verdict"],
                "reports": [bat]}
    elif suite in _MODULE_CHECKERS:
        checker = _MODULE_CHECKERS[suite]
        if args.module:
            M = _get_module(doc, args.module)
            try:
                reports.append(_entry(args.module, checker(R, M)))
            except ValueError as exc:
                raise InputError(str(exc)) from None
        else:
            for name, M in corpus.module_pool(doc):
                try:
                    reports.append(_entry(name, checker(R, M)))
                except ValueError as exc:
                    reports.append({"module": name, "checker": suite,
                                    "verdict": "not_applicable",
                                    "witness": {}, "notes": [str(exc)]})
    else:
        raise InputError(f"unknown check suite {suite!r}; "
                         f"expected one of {', '.join(_CHECK_SUITES)}")

    return {"suite": suite,
            "verdict": _aggregate([r["verdict"] for r in reports]),
            "reports": reports}


def _battery_worker(job: Tuple[str, int, int, int, bool]):
    profile, seed, index, degree_bound, split = job
    doc = corpus._instance(profile, seed, index)
    t0 = time.perf_counter()
    rep = corpus.corpus_battery(doc, corpus.instance_id(profile, seed, index),
                                degree_bound=degree_bound, seed=seed,
                                split=split)
    rep["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    return index, rep


def _worker_count(count: int) -> int:
    env = os.environ.get("CHARMOD_THREADS", "").strip()
    if env:
        workers = max(1, int(env))
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, count))


def _cmd_corpus(args) -> Dict[str, object]:
    if args.profile not in corpus.PROFILES:
        raise InputError(f"unknown profile {args.profile!r}; "
                         f"expected one of {corpus.PROFILES}")
    count = args.count
    jobs = [(args.profile, args.seed, i, args.degree_bound, True)
            for i in range(count)]
    results: Dict[int, Dict[str, object]] = {}
    workers = _worker_count(count)
    if workers == 1:
        for job in jobs:
            idx, rep = _battery_worker(job)
            results[idx] = rep
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, rep in pool.map(_battery_worker, jobs):
                results[idx] = rep
    reports = [results[i] for i in range(count)]
    verdicts = [r["verdict"] for r in reports]
    summary = {"verified": verdicts.count("verified"),
               "refuted": verdicts.count("refuted"),
               "non_cm": sum(1 for r in reports if not r["is_cm"])}
    return {"profile": args.profile, "seed": args.seed, "count": count,
            "summary": summary,
            "verdict": _aggregate(verdicts), "reports": reports}


def _cmd_hunt(args) -> Dict[str, object]:
    out = corpus.hunt_counterexample(args.seed, args.count,
                                     degree_bound=args.degree_bound)
    out["verdict"] = "ok"
    return out


# ---------------------------------------------------------------------------
# rendering


def _pretty(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_flat(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        return "\n".join(f"{pad}- {_flat(v)}" if _is_flat(v) or not v
                         else f"{pad}-\n{_pretty(v, indent + 1)}"
                         for v in value)
    return f"{pad}{_flat(value)}"


def _is_flat(v) -> bool:
    if isinstance(v, dict):
        return False
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return True


def _flat(v) -> str:
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit(report: Dict[str, object], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(_pretty(report))


def _fail(head: Dict[str, object], as_json: bool, code: int, message: str) -> int:
    """Report a failed command: a JSON error object with ``--json``, else a
    line on stderr; returns the exit code."""
    kind, prefix = _ERRORS[code]
    if as_json:
        _emit({**head, "error": {"kind": kind, "message": message}}, True)
    else:
        print(prefix + message, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report")
    common.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed for corpus generation and probes")
    common.add_argument("--count", type=int, default=20, metavar="N",
                        help="number of corpus instances")
    common.add_argument("--max-steps", type=int, default=None, metavar="N",
                        help="truncation depth for resolutions over R")
    common.add_argument("--degree-bound", type=int, default=8, metavar="N",
                        help="width of Hilbert-function windows "
                             "(hunt-counterexample ignores it)")
    common.add_argument("--module", default=None, metavar="NAME",
                        help="module name (R, k, or a document block)")

    ap = argparse.ArgumentParser(
        prog="charmod",
        description="Characteristic and cocharacteristic modules of graded "
                    "quotient rings over finite prime fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("gb", "reduced Groebner basis of the defining ideal"),
            ("res", "minimal free resolution (of R over Q, or of --module over R)"),
            ("invariants", "dimension, depth, type and friends"),
            ("tmod", "characteristic module of --module"),
            ("emod", "cocharacteristic module of --module"),
            ("canonical", "quasi-canonical module of the ring")):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("document", help=".cmr file (or - for stdin)")

    sp = sub.add_parser("check", parents=[common],
                        help="run a theorem checker suite on a document")
    sp.add_argument("suite", help=f"one of: {', '.join(_CHECK_SUITES)}")
    sp.add_argument("document", help=".cmr file (or - for stdin)")

    sp = sub.add_parser("corpus", parents=[common],
                        help="run the property battery over random instances")
    sp.add_argument("profile", help=f"one of: {', '.join(corpus.PROFILES)}")

    sub.add_parser("hunt-counterexample", parents=[common],
                   help="scan for M with M isomorphic to T_M, dim M = dim R, "
                        "over non-Gorenstein rings")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    head = {"command": args.command, "id": None}
    try:
        _check_options(args)
        if args.command == "corpus":
            head["id"] = f"{args.profile}-{args.seed}"
            report = {**head, **_cmd_corpus(args)}
        elif args.command == "hunt-counterexample":
            head["id"] = f"hunt-{args.seed}"
            report = {**head, **_cmd_hunt(args)}
        else:
            doc_id, doc = _read_document(args.document)
            head["id"] = args.instance_id = doc_id
            body = {
                "gb": _cmd_gb,
                "res": _cmd_res,
                "invariants": _cmd_invariants,
                "tmod": _cmd_tmod,
                "emod": _cmd_emod,
                "canonical": _cmd_canonical,
                "check": _cmd_check,
            }[args.command](doc, args)
            report = {**head, **body}
    except (InputError, ValueError) as exc:  # CmrError is a ValueError
        return _fail(head, args.json, 2, str(exc))
    except (OverflowError, ResolutionLimitError) as exc:
        return _fail(head, args.json, 4, str(exc))
    except Exception as exc:
        import traceback  # only failing runs pay for loading it
        traceback.print_exc()
        return _fail(head, args.json, 5, f"{type(exc).__name__}: {exc}")
    report["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    _emit(report, args.json)
    return _EXIT.get(str(report.get("verdict", "ok")), 0)


if __name__ == "__main__":
    raise SystemExit(main())
