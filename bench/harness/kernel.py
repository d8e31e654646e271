"""Build the compiled kernel from the checked-in C++ and import it.

The harness never measures whatever ``_kernel`` happens to sit next to
the sources: it compiles ``src/ckplab/_kernel.cpp`` with g++ into its
own build directory, keyed by a hash of the source and the flags, puts
that directory first on ``ckplab.__path__`` and asserts the imported
module is that build.  A failed build raises; nothing falls back to the
pure engine.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
KERNEL_CPP = SRC / "ckplab" / "_kernel.cpp"
BUILD_ROOT = HERE / "build"

# the flags setup.py hands the extension, plus what a shared object needs
FLAGS = ["-O3", "-std=c++14", "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
         "-shared", "-fPIC"]


class KernelBuildError(RuntimeError):
    """g++ could not produce the kernel extension."""


def _command(out: Path) -> list[str]:
    import numpy
    return (["g++"] + FLAGS
            + [f"-I{numpy.get_include()}",
               f"-I{sysconfig.get_paths()['include']}",
               str(KERNEL_CPP), "-o", str(out)])


def build_dir() -> Path:
    """Directory the current source and flags build into."""
    key = hashlib.sha256(KERNEL_CPP.read_bytes())
    key.update(" ".join(_command(Path("_"))).encode())
    return BUILD_ROOT / f"kernel-{key.hexdigest()[:16]}"


def so_path() -> Path:
    return build_dir() / ("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))


def ensure_built() -> tuple[Path, float, bool]:
    """Compile unless a build for this exact source and flag set exists.

    Returns ``(shared object, seconds spent compiling, cached)``.
    """
    if not KERNEL_CPP.is_file():
        raise KernelBuildError(f"kernel source {KERNEL_CPP} is missing")
    target = so_path()
    if target.is_file():
        return target, 0.0, True
    scratch = target.parent / "tmp"     # g++'s intermediate files
    scratch.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    start = time.perf_counter()
    proc = subprocess.run(_command(partial), capture_output=True, text=True,
                          env=dict(os.environ, TMPDIR=str(scratch)))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        raise KernelBuildError(
            f"g++ exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    os.replace(partial, target)
    return target, elapsed, False


def import_package():
    """Import ``ckplab`` from the sources with the harness-built kernel
    taking precedence; returns the package."""
    target = so_path()
    if not target.is_file():
        raise KernelBuildError(f"kernel not built at {target}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ckplab
    if Path(ckplab.__file__).resolve().parent != SRC / "ckplab":
        raise KernelBuildError(f"imported ckplab from {ckplab.__file__}, "
                               f"not from {SRC}")
    loaded = sys.modules.get("ckplab._kernel")
    if loaded is None and "ckplab.engine" in sys.modules:
        raise KernelBuildError("ckplab.engine was imported before the "
                               "harness build was put on the package path")
    if loaded is None:
        ckplab.__path__.insert(0, str(target.parent))
    from ckplab import _kernel, engine
    if Path(_kernel.__file__).resolve() != target.resolve():
        raise KernelBuildError(
            f"imported kernel {_kernel.__file__}, expected {target}")
    if not engine.kernel_available():
        raise KernelBuildError("the built kernel does not report ready")
    return ckplab
