"""Memory-safety gate for the hand-written compiled kernel.

``_fast.c`` manages its own buffers and reference counts.  This test reruns
every compiled-kernel parity test in a fresh interpreter under
``python -X dev`` with ``PYTHONMALLOC=debug``: the debug allocator pads each
block and fills freed memory, so a write past a buffer aborts at its free and
a missing reference turns into a crash or a wrong result.  The parity tests
load the ``-O0`` build of ``tests/conftest.py``, whose checks the optimizer
cannot fold away.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tests that take the compiled_kernel or fast_module fixture
PARITY = ("compiled or parity or exports or past_degree_cap or lex_reduction"
          " or past_the_degree_cap or single_term")


def test_compiled_kernel_parity_under_the_debug_allocator(fast_module):
    env = dict(os.environ, PYTHONMALLOC="debug", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q",
         "tests/test_kernel.py", "tests/test_groebner.py", "-k", PARITY],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, (res.stdout[-3000:], res.stderr[-3000:])
    assert "\n27 passed, " in res.stdout, res.stdout[-3000:]
