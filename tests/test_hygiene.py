"""Source hygiene: every name a library module imports is used in it, every
import sits at module level, every top-level function and class is reached
by library code, and only the calculus builds complexes without validating
them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stellar"
LIBRARY = sorted(SRC.glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"]
# `Complex._of` skips validation; input paths such as io, lens, cli and
# structure must go through `Complex(...)`
TRUSTED = {"complexes.py", "moves.py"}


def imported_names(tree):
    """Name bound by each import statement, outside `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    """Names read anywhere, including inside string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            out.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_relative_imports(path):
    # the package has no import cycle to break, so a deferred import only hides
    # a module's dependencies
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert not lines, f"{path.name} imports inside a function at lines {lines}"


def referenced_names(tree):
    """Names a module reads, reads as an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_reached_by_library_code(path):
    # code that only tests reach, or that nothing reaches, is deleted; the
    # public API reaches the library through the imports of `__init__.py`
    referenced = set()
    for other in LIBRARY:
        referenced.update(referenced_names(ast.parse(other.read_text(encoding="utf-8"))))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    unreached = [name for name in defined if name not in referenced]
    assert not unreached, f"{path.name} defines {unreached}, which no library code names"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in TRUSTED], ids=lambda p: p.name
)
def test_trusted_constructor_stays_in_the_calculus(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_of"]
    assert not lines, f"{path.name} builds a complex without validation at lines {lines}"
