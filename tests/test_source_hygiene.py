"""Every name a package module or a test module imports is used,
every top-level name the package defines is named somewhere, a name
that only the tests reach is listed as public surface, and every
cross-reference in the package's docstrings and comments, the kernel's
included, names something the package defines.

No linter ships with the toolchain, so this scans the syntax trees
itself: a name bound by ``import`` or ``from ... import`` counts as used
when the module reads it anywhere (a name, the head of an attribute
chain, an annotation) or lists it in ``__all__``.
"""

import ast
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ckplab").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*SOURCES, *(ROOT / "bench").rglob("*.py")])


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


def defined_names(tree) -> dict:
    """``{name: line}`` for every function, class and constant defined
    at the top level of ``tree``."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return defined


def named(tree) -> set:
    """Every name ``tree`` reads, reaches as an attribute, imports or
    spells out whole in a string (``monkeypatch.setattr``, ``getattr``,
    ``__all__``); a mention inside longer text does not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_package_definition_is_named():
    """A top-level function, class or constant of the package that no
    file in ``src/``, ``tests/`` or ``bench/`` names is dead code."""
    used = set()
    for path in READERS:
        used |= named(ast.parse(path.read_text(), filename=str(path)))
    unnamed = [f"{path.name}: {name} (line {line})"
               for path in PACKAGE
               for name, line in defined_names(
                   ast.parse(path.read_text(), filename=str(path))).items()
               if name not in used and name != "__version__"]
    assert not unnamed, f"defined but never named: {unnamed}"


KERNEL_CPP = ROOT / "src" / "ckplab" / "_kernel.cpp"
ROLE = re.compile(r":(?:func|class|meth|attr|data):`~?\.?([\w.]+)(?:\(\))?`")
DOTTED = re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def package_definitions() -> tuple:
    """``(names, classes)``: every name the package defines anywhere (a
    module, a def, a class, an assigned name or an attribute stored on
    an object, such as ``self.aval``) and the class names alone."""
    names = {path.stem for path in PACKAGE} | {"ckplab"}
    classes = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    classes.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Name):
                            names.add(part.id)
                        elif isinstance(part, ast.Attribute):
                            names.add(part.attr)
    return names, classes


def comments(path) -> list:
    """``(line, text)`` for every comment in ``path``: the ``#``
    comments of a Python file, read by ``tokenize`` so a ``#`` inside a
    string is not one, and the text after ``//`` on each line of the
    kernel."""
    if path.suffix == ".cpp":
        return [(number, line.partition("//")[2]) for number, line
                in enumerate(path.read_text().splitlines(), 1)]
    with path.open() as source:
        return [(token.start[0], token.string)
                for token in tokenize.generate_tokens(source.readline)
                if token.type == tokenize.COMMENT]


def cross_references(classes) -> list:
    """``(where, reference)`` for every Sphinx role target in the
    package's docstrings, and every ``module.name`` or ``Class.name``
    of the package (``classes``) that a comment in the package's
    ``.py`` files or in ``_kernel.cpp`` cites."""
    refs = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                refs += [(path.name, ref) for ref in ROLE.findall(doc)]
    heads = {path.stem for path in PACKAGE} | classes | {"ckplab"}
    for path in [*PACKAGE, KERNEL_CPP]:
        refs += [(f"{path.name}:{number}", ref)
                 for number, comment in comments(path)
                 for ref in DOTTED.findall(comment)
                 if ref.split(".")[0] in heads]
    return refs


def test_cross_references_name_what_exists():
    """A docstring role or a comment that cites a renamed or deleted
    function leads the reader nowhere; each must end in a name the
    package still defines."""
    names, classes = package_definitions()
    refs = cross_references(classes)
    assert len(refs) > 100            # the scan sees the references
    # and the Python comments' among them
    assert [ref for where, ref in refs if ".py:" in where]
    stale = [f"{where}: {ref}" for where, ref in refs
             if ref.split(".")[-1] not in names]
    assert not stale, f"cross-references to nothing: {stale}"


# Package names that only the tests reach, kept on purpose: each is part
# of the package's surface for a caller that sets up its own process.
PUBLIC_SURFACE = (
    "uniform",           # the uniform attachment a(d) = 1
    "elimination_claims",  # the claim set a sweep sets against survival's
    "DeepAttach",        # adversary strategies a caller picks
    "LeafAttach",
    "load_state",        # reads the text dump_state writes
)


def test_test_only_names_are_the_public_surface():
    """A top-level package name that only ``tests/`` names is either a
    helper the package no longer needs, which belongs in the tests, or
    surface kept for callers, listed in :data:`PUBLIC_SURFACE`."""
    outside = set()
    for path in [*PACKAGE, *(ROOT / "bench").rglob("*.py")]:
        outside |= named(ast.parse(path.read_text(), filename=str(path)))
    in_tests = set()
    for path in (ROOT / "tests").glob("*.py"):
        in_tests |= named(ast.parse(path.read_text(), filename=str(path)))
    test_only = sorted(
        name for path in PACKAGE
        for name in defined_names(ast.parse(path.read_text(),
                                            filename=str(path)))
        if name in in_tests and name not in outside
        and name != "__version__")
    assert test_only == sorted(PUBLIC_SURFACE), \
        f"names only the tests reach: {test_only}"


NUMBER_TYPES = {"Integral", "Real", "Rational"}


@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "attachment.py"],
                         ids=lambda p: p.name)
def test_the_number_rule_lives_in_attachment(path):
    """What counts as an integer or a real is decided once, by
    ``attachment._require_int`` and ``_require_real`` beside
    ``_to_fraction``; another module that names a ``numbers`` type
    states the rule again, and its copy drifts from the original."""
    tree = ast.parse(path.read_text(), filename=str(path))
    named_here = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in NUMBER_TYPES
                and isinstance(node.value, ast.Name)
                and node.value.id == "numbers"):
            named_here.add(f"numbers.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            named_here.update(f"numbers.{alias.name} (line {node.lineno})"
                              for alias in node.names
                              if alias.name in NUMBER_TYPES)
    assert not named_here, f"{path.name} names {sorted(named_here)}"


def evaluate_calls(path) -> list:
    """``module.function`` for every ``x.evaluate(...)`` call in the
    package module ``path``, by the function it sits in."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "evaluate"):
                calls.append(f"{path.stem}.{where}")
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return calls


def test_the_weight_rule_lives_in_attachment_weight():
    """A float attachment weight is read in one place,
    ``attachment.attachment_weight``, which refuses one that is not
    finite; the deep audit's ``audit_weights`` recomputes the weights on
    its own, on purpose.  The kernel calls ``attachment_weight`` back
    and never names ``evaluate`` in its code, so both backends refuse
    with one text."""
    calls = sorted(call for path in PACKAGE for call in evaluate_calls(path))
    assert calls == ["attachment.attachment_weight", "audits.audit_weights"]
    code = [line.partition("//")[0]
            for line in KERNEL_CPP.read_text().splitlines()]
    assert not [line for line in code if "evaluate" in line]
    assert any('"attachment_weight"' in line for line in code)
