"""The benchmark's tracing hooks still reach every traced function.

``perfbench/tracing.py`` rebinds each traced name (``TRACED``) wherever
``charmod`` holds it.  A refactor that keeps a second reference to one of
them (an alias, a registry, a dict of callbacks) leaves calls untraced, and
``perfbench/run.py --trace 1`` refuses to run; this test catches that in the
ordinary test run.  The check runs in a fresh interpreter because installing
the tracer rebinds module globals for good.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import charmod, charmod.cli
import tracing

tracer = tracing.Tracer()
tracer.install()
left = tracer.unwrapped_bindings()
assert left == [], left
for name, orig in tracer.originals.items():
    mod, fn = name.split(".")
    wrapped = getattr(sys.modules["charmod." + mod], fn)
    assert wrapped is not orig, name + " was not rebound"
"""


def test_tracer_wraps_every_traced_binding():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", SCRIPT],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr[-3000:]
