"""No function under ``src/charmod`` takes a parameter its body never reads.

A knob that nothing reads misleads every caller who sets it.  A method's
receiver (``self``, ``cls``) is exempt: it belongs to the interface.  A
parameter counts as read where the function's body, a nested function
included, loads it.  ``ALLOWED`` lists the exceptions, each still unread,
as (module, function pattern, parameter).  Run this file as a script to
print the unread parameters.
"""

import ast
from fnmatch import fnmatch
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charmod"

ALLOWED = {
    # public API; dropping either is a product decision, not a refactor
    ("characteristic", "split_identity_check", "R"),
    ("corpus", "hunt_counterexample", "degree_bound"),
    # the command handlers share one signature
    ("cli", "_cmd_*", "args"),
}


def _params(fn):
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
    return [n for n in names if n not in ("self", "cls")]


def unread_parameters(package=PACKAGE):
    """(module, function, parameter) of every parameter never read."""
    out = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            name = getattr(fn, "name", "<lambda>")
            out += [(module, name, p) for p in _params(fn) if p not in read]
    return sorted(out)


def _allowed(entry, allowed):
    return any(m == entry[0] and fnmatch(entry[1], f) and p == entry[2]
               for m, f, p in allowed)


def test_no_unread_parameters():
    unread = unread_parameters()
    assert [e for e in unread if not _allowed(e, ALLOWED)] == []
    # an exception that no longer applies leaves the list
    assert [a for a in ALLOWED if not any(_allowed(e, {a}) for e in unread)] == []


def test_the_check_sees_an_unread_parameter(tmp_path):
    pkg = tmp_path / "charmod"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "sub" / "a.py").write_text(
        "class C:\n"
        "    def m(self, x, y=0):\n"
        "        return x\n"
        "def f(a, *rest, b, **opts):\n"
        "    def g():\n"
        "        return a + b\n"
        "    return g()\n")
    assert unread_parameters(pkg) == [("sub.a", "f", "opts"), ("sub.a", "f", "rest"),
                                      ("sub.a", "m", "y")]


if __name__ == "__main__":
    print("\n".join(":".join(e) for e in unread_parameters()) or "no unread parameters")
