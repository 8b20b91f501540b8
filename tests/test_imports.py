"""No module under ``src/charmod`` keeps a module-level import it never uses,
and importing the package and its CLI loads no numpy.

A deletion that leaves its imports behind fails here.  Package
``__init__`` files re-export what they import, and so does a name listed
in a module's ``__all__``; both are exempt.  A name counts as used where
the module reads it, annotations included (the package postpones them, so
none needs quoting).  Run this file as a script to print the unused
imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charmod"


def _imports(tree):
    """(bound name, line) of each top-level import, ``__future__`` aside."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _used_names(tree):
    """Names the module reads, and the strings its ``__all__`` lists."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(package=PACKAGE):
    """``path:line name`` of every unused module-level import."""
    out = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        out += [f"{path.relative_to(package.parent)}:{line} {name}"
                for name, line in _imports(tree) if name not in used]
    return sorted(out)


def test_no_unused_module_imports():
    assert unused_imports() == []


def test_the_check_sees_an_unused_import(tmp_path):
    pkg = tmp_path / "charmod"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f\n")
    (pkg / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Optional\n"
        "from .b import g, h\n"
        "__all__ = ['h']\n"
        "def f(x: Optional[int]) -> List[int]:\n"
        "    return [os.path.sep]\n")
    assert unused_imports(pkg) == ["charmod/a.py:4 g"]


def test_import_loads_no_numpy():
    # charmod has no runtime dependency; numpy alone would double a cold start
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, charmod, charmod.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


if __name__ == "__main__":
    print("\n".join(unused_imports()) or "no unused imports")
