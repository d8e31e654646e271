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


# the kernel is hand-written C++ against the CPython and numpy headers,
# so it builds with the C++ compiler alone; its large columns grow with
# Linux's mremap, so elsewhere the build fails and, as for any failed
# build, the pure-Python engine is used
kernel = Extension(
    "ckplab._kernel",
    ["src/ckplab/_kernel.cpp"],
    language="c++",
    include_dirs=[numpy.get_include()],
    extra_compile_args=["-O3", "-std=c++14"],
    define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
)

setup(ext_modules=[kernel], cmdclass={"build_ext": optional_build_ext})
