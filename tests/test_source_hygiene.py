"""Every name a package module or a test module imports is used.

No linter ships with the toolchain, so this scans the syntax trees
itself: a name bound by ``import`` or ``from ... import`` counts as used
when the module reads it anywhere (a name, the head of an attribute
chain, an annotation) or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "ckplab").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def imported_names(tree) -> dict:
    """``{bound name: line}`` for every import in ``tree``, ``__future__``
    features left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    return bound


def used_names(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str))
    return used


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
