"""No code without a caller: every public name of the library is used.

A public top-level function or class, or a public method, of
``src/laminate`` must be named somewhere else: in ``src/`` (its own
``def``/``class`` line does not name it), in ``demos/``, in ``bench/`` or in
the acceptance suite.  A name counts as a bare name, as an attribute
``.name`` or as a string holding exactly the name (``bench/tracing.py``
patches functions by their names); imports alone do not count.  No
library module imports a name that it never reads (``__future__`` aside).
Every public top-level function and class of ``tests/helpers.py``, where
the label references of rewritten library code live, is named by some
``tests/test_*.py`` module.  The library is layered: ``branched_graph``, the
graph core, imports no other library module, and no chain of library
imports leads from a module back to itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "laminate").glob("*.py"))
CALLERS = [*LIBRARY, *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
HELPERS = ROOT / "tests" / "helpers.py"
TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def _public(tree: ast.Module):
    """(qualified name, name) of every public top-level function and class
    and every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _named(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_public_library_name_has_a_caller():
    named = set().union(*(_named(ast.parse(path.read_text())) for path in CALLERS))
    uncalled = [f"{path.stem}.{qualified}"
                for path in LIBRARY
                for qualified, name in _public(ast.parse(path.read_text()))
                if name not in named]
    assert uncalled == []


def test_no_library_module_imports_a_name_it_never_reads():
    unread = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unread += [f"{path.stem}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
    assert unread == []


def test_every_public_helper_is_named_by_a_test_module():
    named = set().union(*(_named(ast.parse(path.read_text())) for path in TESTS))
    tree = ast.parse(HELPERS.read_text())
    unnamed = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in named]
    assert unnamed == []


def _library_imports(path: Path) -> set:
    """The library modules that a library module imports, read with ``ast``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            out |= {name.split(".")[1] for name in names if name.startswith("laminate.")}
    return out


def test_the_graph_core_imports_no_other_library_module():
    assert _library_imports(ROOT / "src" / "laminate" / "branched_graph.py") == set()


def test_the_library_import_graph_has_no_cycle():
    imports = {path.stem: _library_imports(path) for path in LIBRARY}
    assert set().union(*imports.values()) <= imports.keys()
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join([*path, module])
        if module not in done:
            path.append(module)
            for target in sorted(imports[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in sorted(imports):
        visit(module)
