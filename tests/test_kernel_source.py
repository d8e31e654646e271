"""The checked-in ``_kernel.cpp`` was generated from the current
``_kernel.pyx``.

Cython embeds a few lines of the ``.pyx`` around every statement it
translates, in a comment headed ``/* "ckplab/_kernel.pyx":N`` with the
line N tagged ``# <<<<<<<<<<<<<<``.  Every such block must match the
``.pyx`` as it is now; an edit to the ``.pyx`` that was not followed by
regenerating the ``.cpp`` fails here.
"""

import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "ckplab"
HEADER = re.compile(r'^\s*/\* "ckplab/_kernel\.pyx":(\d+)$')
MARKER = "             # <<<<<<<<<<<<<<"


def embedded_blocks(cpp_lines):
    """Yield (line number N, embedded lines) per source block."""
    lines = iter(cpp_lines)
    for line in lines:
        head = HEADER.match(line)
        if not head:
            continue
        body = []
        for inner in lines:
            if inner == "*/":
                break
            assert inner.startswith(" * "), inner
            body.append(inner[3:])
        yield int(head.group(1)), body


def test_cpp_source_blocks_match_pyx():
    pyx = (PKG / "_kernel.pyx").read_text().splitlines()
    cpp = (PKG / "_kernel.cpp").read_text().splitlines()
    blocks = list(embedded_blocks(cpp))
    assert blocks, "no embedded _kernel.pyx blocks in _kernel.cpp"
    stale = []
    for n, body in blocks:
        tagged = [i for i, text in enumerate(body) if text.endswith(MARKER)]
        assert len(tagged) == 1, f"block for line {n} has {len(tagged)} tags"
        at = tagged[0]
        body[at] = body[at][:-len(MARKER)]
        first = n - 1 - at
        if first < 0 or body != pyx[first:first + len(body)]:
            stale.append(n)
    assert not stale, (f"_kernel.cpp is stale at _kernel.pyx lines {stale}; "
                       "regenerate it with Cython")
