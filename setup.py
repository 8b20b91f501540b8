"""Build script: compiles the optional reduction kernel.

The compiled extension is a pure speedup.  With Cython it is generated
from ``_fast.pyx``; without Cython the committed translation ``_fast.c``
is compiled directly, which needs only a C compiler.  If no compiler is
available either, the build falls back to the pure-Python kernel and the
install still succeeds.
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


try:
    from Cython.Build import cythonize
    ext_modules = cythonize(
        ["src/charmod/kernel/_fast.pyx"],
        language_level=3,
    )
except ImportError:  # pragma: no cover
    print("warning: Cython not available; compiling the committed _fast.c")
    ext_modules = [Extension("charmod.kernel._fast",
                             ["src/charmod/kernel/_fast.c"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
