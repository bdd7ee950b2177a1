"""Build script: compiles the optional C kernels from the committed
src/compsigns/_kernels.c (generated by Cython from _kernels.pyx).

If no C compiler works the build degrades gracefully and the package
runs on the pure-Python kernels in compsigns._kernels_py.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

EXTENSION = Extension("compsigns._kernels", ["src/compsigns/_kernels.c"])


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing or broken
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(f"WARNING: building {EXTENSION.name} failed ({exc}); "
              "falling back to the pure-Python kernels.")


setup(ext_modules=[EXTENSION], cmdclass={"build_ext": optional_build_ext})
