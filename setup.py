import numpy
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the accelerated kernel if possible, fall back to pure Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"warning: optional extension build failed ({exc}); "
                  "the pure-Python engine will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name}: {exc}")


try:
    from Cython.Build import cythonize
except ImportError:
    # the C++ that Cython generates from _kernel.pyx is checked in, so the
    # kernel builds without Cython (and without a network to fetch it)
    cythonize = None

kernel = Extension(
    "ckplab._kernel",
    ["src/ckplab/_kernel.pyx" if cythonize else "src/ckplab/_kernel.cpp"],
    language="c++",
    include_dirs=[numpy.get_include()],
    extra_compile_args=["-O3", "-std=c++14"],
    define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
)

if cythonize:
    ext_modules = cythonize([kernel], compiler_directives={"language_level": "3"})
else:
    ext_modules = [kernel]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
