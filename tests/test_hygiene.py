"""Source hygiene: every name a library module imports is used in it, every
import sits at module level, every top-level function and class and every
public method is reached by other library code or listed in `PUBLIC_ONLY`
with the reason it stays, and only the calculus builds complexes without
validating them."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stellar"
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = FUNCTIONS + COMPREHENSIONS + (ast.ClassDef,)


def own_nodes(nodes):
    """The nodes under `nodes` that share their scope: a nested function,
    class or comprehension is yielded but not entered."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def scope_body(scope):
    """The nodes a function, class or comprehension evaluates in its own
    scope; decorators, defaults, annotations and bases are read outside."""
    if isinstance(scope, COMPREHENSIONS):
        return list(ast.iter_child_nodes(scope))
    return scope.body if isinstance(scope.body, list) else [scope.body]


def bound_names(scope):
    """Names a function, class or comprehension binds in its own scope."""
    names, declared = set(), set()
    if isinstance(scope, COMPREHENSIONS):
        body = [g.target for g in scope.generators]
    else:
        body = scope_body(scope)
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        names.update(x.arg for x in params if x)
    for node in own_nodes(body):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(node))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def is_module_binding(name, scopes):
    """Whether `name`, loaded in the innermost of `scopes`, is the module's."""
    for depth, (scope, bound) in enumerate(reversed(scopes)):
        if depth and isinstance(scope, ast.ClassDef):
            continue  # a class body does not enclose the scopes nested in it
        if name in bound:
            return False
    return True


def module_loads(node, scopes=()):
    """(name, attribute) for each load of a name that resolves to the module
    scope: attribute None for the load itself, and the attribute read off
    it when there is one."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if is_module_binding(node.id, scopes):
            yield node.id, None
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if is_module_binding(node.value.id, scopes):
            yield node.value.id, node.attr
    inner, body = scopes, ()
    if isinstance(node, SCOPES):
        inner, body = (*scopes, (node, bound_names(node))), scope_body(node)
    for child in ast.iter_child_nodes(node):
        inside = any(child is b for b in body)
        yield from module_loads(child, inner if inside else scopes)


def reached_definitions(path):
    """(module, name) pairs a library file reaches: a load of a name bound at
    its own module level, outside the definition of that name, an attribute
    read off an imported package module (`from . import io`, then
    `io.dumps`), or an import of the name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    out.add((node.module.split(".")[-1], alias.name))
    for statement in tree.body:
        own = getattr(statement, "name", None)  # a definition does not reach itself
        for name, attr in module_loads(statement):
            if attr is None and name != own:
                out.add((path.stem, name))
            elif attr is not None and name in modules:
                out.add((modules[name], attr))
    return out


def public_methods(tree):
    """(class name, method) for each public method of a top-level class,
    properties included."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node


def attribute_reads(nodes):
    """How often each attribute name is read under `nodes`."""
    return Counter(
        n.attr for node in nodes for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


# Definitions that no other library code reaches, each with the reason it
# stays; any other one is deleted.  The re-exports of `__init__.py` do not
# count as reaching a name, so this is the library's public-only surface.
PUBLIC_ONLY = {
    "complexes.standard_sphere": "the known sphere of the tests and of the "
        "benchmark corpora",
    "complexes.Complex.closure": "the face list computed independently of "
        "`face_table`, which the tests check the table's order against",
    "moves.relabel": "the renaming move of the stellar calculus; the tests "
        "build relabelled copies with it",
    "moves.recognize": "the public recognizer; the library enters its "
        "recursion through `_recognize`, and the benchmark probes it",
    "group.order_of": "the paper's order of p0∘p_α, a reference for the class "
        "pass; the benchmark probes it",
    "group.degree_entry": "the paper's degree entry, a reference for the "
        "class pass",
    "group.flatness_equivalence_check": "the cross-check that degree (2,) "
        "means face classes of at most two faces; the benchmark runs it",
    "group.collapsible_edges": "the paper's collapsible edges of a 2-sphere "
        "shell, which the tests compute and no verdict reads",
    "group.internally_flat_complexes": "the paper's internally flat orbits of "
        "a 2-sphere shell, which the tests compute and no verdict reads",
    "quotient.euler_identity_check": "the cross-check χ(Q) = χ(M) + 1 on a "
        "built structure; the benchmark runs it",
    "structure.verify_structure": "the public check of a built structure, "
        "which no library path runs; the benchmark probes it",
    "lens.fold_structure": "the fold structure, a known flat quotient in the "
        "tests' zoo",
    "invariants.h1_mod2_concordant": "the cross-check of integer H1 against "
        "the GF(2) rank; the benchmark runs it",
}


@pytest.fixture(scope="module")
def library_reach():
    return set().union(*(reached_definitions(p) for p in MODULES))


@pytest.fixture(scope="module")
def library_attribute_reads():
    return sum((attribute_reads([ast.parse(p.read_text(encoding="utf-8"))]) for p in MODULES),
               Counter())


def unreached(path, library_reach, library_attribute_reads):
    """The definitions of a module that no other library code reaches, by
    their dotted names: top-level functions and classes, and public methods
    that nothing reads as an attribute outside their own bodies."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = [
        f"{path.stem}.{node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (path.stem, node.name) not in library_reach
    ]
    for cls, method in public_methods(tree):
        if library_attribute_reads[method.name] == attribute_reads([method])[method.name]:
            out.append(f"{path.stem}.{cls}.{method.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_reached_by_library_code(path, library_reach, library_attribute_reads):
    # code that only tests reach, or that nothing reaches, is deleted or
    # listed in PUBLIC_ONLY.  A local variable or an attribute of some object
    # that shares a top-level definition's name does not reach it; any read
    # of an attribute of a method's name reaches the method.
    found = unreached(path, library_reach, library_attribute_reads)
    listed = [name for name in found if name not in PUBLIC_ONLY]
    assert not listed, f"{path.name} defines {listed}, which no other library code reaches"


def test_public_only_lists_nothing_that_is_reached(library_reach, library_attribute_reads):
    found = {name for p in MODULES for name in unreached(p, library_reach, library_attribute_reads)}
    stale = sorted(set(PUBLIC_ONLY) - found)
    assert not stale, f"PUBLIC_ONLY lists {stale}, which library code reaches or which are gone"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in TRUSTED], ids=lambda p: p.name
)
def test_trusted_constructor_stays_in_the_calculus(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_of"]
    assert not lines, f"{path.name} builds a complex without validation at lines {lines}"
