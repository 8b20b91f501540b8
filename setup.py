"""Build script: compiles the optional reduction kernel.

The compiled extension is a pure speedup: ``_fast.c`` is a hand-written
CPython extension and needs only a C compiler.  If none is available, the
build falls back to the pure-Python kernel and the install still succeeds.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible, otherwise warn and continue."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover
            print(f"warning: compiled kernel skipped ({exc}); "
                  "using the pure-Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover
            print(f"warning: compiled kernel skipped ({exc}); "
                  "using the pure-Python kernel")


ext_modules = [Extension("charmod.kernel._fast", ["src/charmod/kernel/_fast.c"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
