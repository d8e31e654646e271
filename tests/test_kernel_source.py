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

Both tests are skipped without g++.  A third reads the source alone:
every member function ``Engine`` declares is defined and called, the
kernel's analogue of the package's check that every definition is named.
Two more hold the membership bookkeeping to one writer on each engine:
a node's membership code and the counts of each code are written only
by ``Engine::refresh`` and, once, at birth in ``Engine::add_node``, and
in the package, read by its syntax trees, only by
``PyEngine._refresh_membership`` and ``PyEngine._add_node``.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from collections import Counter
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


# a comment, or a string or character literal, whichever starts first
COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.DOTALL)


def code_only(source: str) -> str:
    """``source`` with each comment blanked and each literal emptied, so
    neither can hold a name."""
    return COMMENT_OR_LITERAL.sub(
        lambda m: m.group()[0] * 2 if m.group()[0] in "\"'" else " ",
        source)


def class_body(code: str, name: str) -> str:
    """The text between the braces of ``class name { ... };``."""
    start = code.index("{", code.index(f"class {name} {{"))
    depth = 0
    for end in range(start, len(code)):
        depth += {"{": 1, "}": -1}.get(code[end], 0)
        if depth == 0:
            return code[start + 1:end]
    raise ValueError(f"class {name} is not closed")


def member_functions(body: str) -> dict:
    """``{name: defined in the class}`` for every member function a
    class body declares, read from its declarations outside any inline
    body; the constructor is left out."""
    members = {}
    depth, decl = 0, ""
    for ch in body:
        if depth == 0 and ch in ";{":
            name = re.search(r"(\w+)\s*\(", decl)
            if name and name.group(1) != "Engine":
                members[name.group(1)] = ch == "{"
            decl = ""
        elif depth == 0:
            decl += ch
        depth += {"{": 1, "}": -1}.get(ch, 0)
    return members


def engine_definitions(code: str) -> list:
    """``(name, start, end)`` for each ``Engine::name(...)`` followed by
    a body, not a ``;``: the braces of the body are at ``start`` and
    ``end``."""
    spans = []
    for m in re.finditer(r"\bEngine::(\w+)\s*\(", code):
        depth, i = 1, m.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(code[i], 0)
            i += 1
        head = re.match(r"[^;{]*\{", code[i:])
        if head is None:
            continue
        start = end = i + head.end() - 1
        depth = 0
        while True:
            depth += {"{": 1, "}": -1}.get(code[end], 0)
            if depth == 0:
                break
            end += 1
        spans.append((m.group(1), start, end))
    return spans


def test_every_engine_member_is_defined_and_called():
    code = code_only(KERNEL_CPP.read_text())
    members = member_functions(class_body(code, "Engine"))
    assert len(members) > 20             # the scan sees the members
    defined = {name for name, _, _ in engine_definitions(code)}
    undefined, uncalled = [], []
    for name, inline in sorted(members.items()):
        outside = name in defined
        if not (inline or outside):
            undefined.append(name)
        # the uses of the name but its declaration and its definition
        uses = len(re.findall(rf"\b{name}\s*\(", code)) - 1 - outside
        if uses < 1:
            uncalled.append(name)
    assert not undefined, f"declared but never defined: {undefined}"
    assert not uncalled, f"defined but never called: {uncalled}"


# a write to a node's membership code or to the counts of each code
MEMBERSHIP_WRITE = re.compile(
    r"\.member\s*=(?!=)"
    r"|\bmember_count_\s*(?:\[[^\]]*\])?\s*(?:[-+*/|&^]?=(?!=)|\+\+|--)"
    r"|(?:\+\+|--)\s*member_count_\b")


def test_kernel_membership_has_one_writer():
    """The constructor creates the counts, ``refresh`` moves a node from
    one code's count to another's and sets its code, and ``add_node``
    sets the new node's code and counts it; nothing else writes
    either."""
    code = code_only(KERNEL_CPP.read_text())
    spans = engine_definitions(code)
    writes = {}
    for m in MEMBERSHIP_WRITE.finditer(code):
        where = [name for name, start, end in spans
                 if start < m.start() < end]
        writes.setdefault(where[0] if where else None, []).append(
            " ".join(m.group().split()))
    assert writes == {
        "Engine": ["member_count_ ="],
        "refresh": ["--member_count_", "++member_count_", ".member ="],
        "add_node": [".member =", "++member_count_"]}, writes


PACKAGE = sorted((ROOT / "src" / "ckplab").glob("*.py"))
MEMBERSHIP = {"member", "member_count"}
# the list methods that change a list in place
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
            "sort", "reverse", "__setitem__", "__delitem__"}


def flat_targets(targets) -> list:
    """Assignment targets with every tuple and list unpacked."""
    out = []
    for t in targets:
        out += (flat_targets(t.elts) if isinstance(t, (ast.Tuple, ast.List))
                else [t])
    return out


def membership_writes(tree) -> Counter:
    """How often each function in ``tree`` binds the attribute
    ``member`` or ``member_count`` (kind ``"bind"``) or changes an item
    of either, by assignment, deletion or a list method, through the
    attribute or a local name bound to it (kind ``"write"``), keyed by
    ``(function, kind)``."""
    found = Counter()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {t.id for node in ast.walk(func)
                   if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr in MEMBERSHIP
                   for t in node.targets if isinstance(t, ast.Name)}

        def held(expr):
            return ((isinstance(expr, ast.Attribute)
                     and expr.attr in MEMBERSHIP)
                    or (isinstance(expr, ast.Name) and expr.id in aliases))
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            for t in flat_targets(targets):
                if isinstance(t, ast.Attribute) and t.attr in MEMBERSHIP:
                    found[func.name, "bind"] += 1
                elif isinstance(t, ast.Subscript) and held(t.value):
                    found[func.name, "write"] += 1
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and held(node.func.value)):
                found[func.name, "write"] += 1
    return found


def test_pyengine_membership_has_one_writer():
    """``PyEngine.__init__`` creates the codes and the counts,
    ``_refresh_membership`` sets a code and moves the node between two
    counts, and ``_add_node`` appends the new node's code and counts
    it; no other function in the package writes either."""
    writes = {path.name: membership_writes(ast.parse(path.read_text()))
              for path in PACKAGE}
    assert writes.pop("evolution.py") == {
        ("__init__", "bind"): 2, ("_refresh_membership", "write"): 3,
        ("_add_node", "write"): 2}
    assert not any(writes.values()), writes
