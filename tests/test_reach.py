"""The reach rule: every function under ``src/charmod`` is called by the
benchmark items or a short list of CLI commands, apart from a fixed list of
exemptions.

A fresh interpreter installs a ``sys.setprofile`` hook before ``charmod``
is imported, forces the pure kernel, runs the ``battery``, ``wide`` and
``cli`` items of ``perfbench/workloads.py`` at seed 1 and then
``REACH_COMMANDS`` with ``CHARMOD_THREADS=1``, and prints the code objects
it saw called.  The test compares the named functions never called with
``EXEMPT`` in both directions, so a function nothing reaches fails it, and
so does an exemption that has become reachable.  Run this file as a
script to print the functions nothing reaches.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charmod"
FIXTURES = PACKAGE / "fixtures"

REACH_COMMANDS = [
    ["corpus", "mixed", "--seed", "3", "--count", "4"],
    ["hunt-counterexample", "--seed", "2", "--count", "4"],
] + [[cmd, str(FIXTURES / f"{fx}.cmr"), "--module", "k"]
     for fx in ("e2", "veronese") for cmd in ("res", "invariants")]

# Named functions no reach run calls, dunders aside.
EXEMPT = {
    # error paths
    "cli._fail", "kernel.common._degree_overflow",
    # non-JSON output
    "cli._pretty", "cli._is_flat", "cli._flat",
    # pinned by a round-trip property test
    "cmr.render",
    "kernel.backend_name",
    # library features the README documents, and their helper
    "invariants.poincare_bass", "invariants.gdim_bounded", "invariants._k_resolution",
    # the ring interface QuotientRing shares with PolyRing
    "groebner.QuotientRing.field", "groebner.QuotientRing.variables",
    "groebner.QuotientRing.n", "groebner.QuotientRing.poly",
    # only iso_probe's Betti fallback reaches it, and no reach run takes it
    "resolution.BettiTable.restrict",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_named_function(code) -> bool:
    """A def, not a module, class body, lambda or comprehension, nor a dunder."""
    last = code.co_qualname.rsplit(".", 1)[-1]
    return not last.startswith("<") and not (last.startswith("__") and last.endswith("__"))


def defined_functions():
    """``module.qualname`` -> (file, first line) of every named function
    under ``src/charmod`` (class bodies included; importing runs them)."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if _is_named_function(code):
                out[f"{_module_name(path)}.{code.co_qualname}"] = (str(path),
                                                                   code.co_firstlineno)
    return out


def reached():
    """(file, first line) of every code object called during the reach runs."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    os.environ["CHARMOD_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from worker import KernelFinder
    sys.meta_path.insert(0, KernelFinder(None))
    sys.setprofile(hook)
    import workloads
    from charmod import cli
    from charmod.kernel import backend_name
    errors = []
    for name in ("battery", "wide", "cli"):
        for item in workloads.build(name, 1, ROOT):
            _, error = item.run()
            if error:
                errors.append(f"{name} {item.id}: {error}")
    for argv in REACH_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--json"])
        if code not in (0, 1, 3):
            errors.append(f"{' '.join(argv)}: exit {code}")
    sys.setprofile(None)
    return {"backend": backend_name(), "errors": errors,
            "called": sorted({(c.co_filename, c.co_firstlineno) for c in seen})}


def never_called(run):
    called = {tuple(c) for c in run["called"]}
    return {name for name, where in defined_functions().items() if where not in called}


def test_every_function_is_reached_or_exempt():
    proc = subprocess.run([sys.executable, __file__, "--json"], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    run = json.loads(proc.stdout)
    assert run["backend"] == "pure"
    assert run["errors"] == []
    missed = never_called(run)
    assert missed - EXEMPT == set(), "functions nothing reaches"
    assert EXEMPT - missed == set(), "exempt functions that are now reached"


if __name__ == "__main__":
    result = reached()
    if "--json" in sys.argv:
        print(json.dumps(result))
    else:
        for name in sorted(never_called(result)):
            print(name)
