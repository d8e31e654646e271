"""Build the compiled kernel before any test imports ``ckplab``.

When g++ is on PATH the kernel is compiled from the checked-in
``_kernel.cpp`` by the benchmark harness's builder
(``bench/harness/kernel.py``) and put first on the package path, so the
backend parity tests run instead of skipping.  A failed build is an
error, not a skip.  Without g++ the parity tests skip.
"""

import importlib.util
import shutil
from pathlib import Path

KERNEL_BUILDER = (Path(__file__).resolve().parent.parent
                  / "bench" / "harness" / "kernel.py")


def pytest_configure(config):
    if shutil.which("g++") is None:
        return
    spec = importlib.util.spec_from_file_location("_ckplab_kernel_builder",
                                                  KERNEL_BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    builder.ensure_built()
    builder.import_package()
