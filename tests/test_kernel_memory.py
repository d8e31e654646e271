"""The kernel's memory per node stays where its layout puts it.

A node costs the kernel a 24-byte record, three 4-byte edge columns per
parent edge, a 4-byte child head and PF child count, and one 8-byte
Fenwick slot: 61 bytes at the 1.75 parent edges per node of the
process below, with no column of weights and no walk scratch per node.
A column that crept back in would cost 4 to 8 bytes a node, and this
guard would catch it.
The growth is measured in a child interpreter, so nothing the test
session allocated counts.  It reads the resident set from
``/proc/self/statm``, so it runs on Linux only.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from ckplab.engine import kernel_available

# bytes of resident growth per node allowed; the layout above needs 61
BYTES_PER_NODE = 69

# the benchmark's trial-ct process, from a 25-node CT chain to 2**18 - 1
# nodes, one short of the index's capacity, so its Fenwick tree is full
GROW = """
import os
import sys
sys.path.insert(0, {src!r})
import ckplab
ckplab.__path__.insert(0, {kernel_dir!r})
from ckplab import _kernel
assert _kernel.__file__ == {kernel_file!r}
from ckplab.attachment import ParentCountLaw, preferential
from ckplab.evolution import Features, init_chain
from ckplab.state import CT

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

feats = Features(preferential(), ParentCountLaw({{1: 0.5, 2: 0.25, 3: 0.25}}),
                 check_rate=0.5, check_depth=5, mechanism="complete",
                 error_rate=0.05, detection_rate=0.8)
init = init_chain(25, 1, CT)
engine = _kernel.KernelEngine(feats, init, 3)
before = resident()
summary = engine.run(2**18 - 1 - 25)
grown = summary["final_counts"]["nodes"] - 25
print(grown, (resident() - before) / grown)
"""


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel not built")
@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="no /proc/self/statm")
def test_kernel_memory_per_node():
    from ckplab import _kernel

    kernel = Path(_kernel.__file__)
    script = GROW.format(
        src=str(Path(__file__).resolve().parent.parent / "src"),
        kernel_dir=str(kernel.parent), kernel_file=str(kernel))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    grown, per_node = proc.stdout.split()
    assert int(grown) == 2**18 - 1 - 25
    assert float(per_node) <= BYTES_PER_NODE
