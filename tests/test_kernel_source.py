"""``_kernel.cpp`` compiles warning-free as C++14, as it ships.

The kernel is hand-written C++, so the compiler is its lint: the source
must compile with ``g++ -O3 -std=c++14 -Wall -Wextra -Werror``, the
optimisation level ``setup.py`` builds it at.  A syntax-only pass never
runs the optimiser, so the warnings that need its data-flow analysis
(``-Wmaybe-uninitialized``, ``-Warray-bounds``, ``-Wstringop-overflow``)
could never fire; the object file is thrown away.  The Python and numpy
headers go in with ``-isystem``, so only warnings in the kernel itself
count.

``setup.py`` builds the same source offline, and its build command
swallows a failed build so an install falls back to the pure-Python
engine; so the build is run here into a temporary directory, and the
shared object it leaves must exist and import as a ready kernel.

Both tests are skipped without g++.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNEL_CPP = ROOT / "src" / "ckplab" / "_kernel.cpp"


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


# imports the kernel at argv[2] as ckplab._kernel, the package from src/
IMPORT_BUILT = """
import sys
from pathlib import Path
import ckplab
ckplab.__path__.insert(0, str(Path(sys.argv[1]).parent))
from ckplab import _kernel
assert Path(_kernel.__file__).resolve() == Path(sys.argv[1]).resolve()
print(_kernel.KERNEL_READY)
"""


@pytest.mark.skipif(shutil.which("g++") is None, reason="g++ not on PATH")
def test_setup_py_builds_the_kernel(tmp_path):
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"),
         "--build-temp", str(tmp_path / "tmp")],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    built = tmp_path / "lib" / "ckplab" / (
        "_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert built.is_file(), proc.stdout[-4000:]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUILT, str(built)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "True"
