"""``_kernel.cpp`` compiles warning-free as C++14, as it ships.

The kernel is hand-written C++, so the compiler is its lint: the source
must compile with ``g++ -O3 -std=c++14 -Wall -Wextra -Werror``, the
optimisation level ``setup.py`` builds it at.  A syntax-only pass never
runs the optimiser, so the warnings that need its data-flow analysis
(``-Wmaybe-uninitialized``, ``-Warray-bounds``, ``-Wstringop-overflow``)
could never fire; the object file is thrown away.  The Python and numpy
headers go in with ``-isystem``, so only warnings in the kernel itself
count.  Skipped without g++.
"""

import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy
import pytest

KERNEL_CPP = (Path(__file__).resolve().parent.parent / "src" / "ckplab"
              / "_kernel.cpp")


@pytest.mark.skipif(shutil.which("g++") is None, reason="g++ not on PATH")
def test_kernel_compiles_without_warnings():
    proc = subprocess.run(
        ["g++", "-O3", "-c", "-o", os.devnull, "-std=c++14", "-Wall",
         "-Wextra", "-Werror",
         "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
         "-isystem", sysconfig.get_paths()["include"],
         "-isystem", numpy.get_include(), str(KERNEL_CPP)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
