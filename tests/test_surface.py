"""Every public function, class and method in the package has a caller that ships.

A caller is any reference by name (a name, an attribute, an imported name or a
bare identifier string such as a `getattr` key) in `src/`, `scripts/`, `bench/`
or the acceptance suite. A re-export from the package's `__init__.py` is not a
use, and unit tests do not count: code that only unit tests reach belongs in
`tests/` (see `tests/oracles.py`) or nowhere.

The scan is by name, so a dead method escapes it when anything else of the
same name is referenced (an attribute, a field or a method of another class).
An imported name counts as a reference, so no module in `src/`, `scripts/`,
`tests/` or `bench/` may import a name it never uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gscascade"
CALLERS = [
    *sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").rglob("*.py")),
    *sorted((ROOT / "bench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
IMPORTERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").rglob("*.py")),
             *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions(path):
    """Public module-level functions and classes, and the public methods of
    those classes as `Class.method`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {}
    for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
        names[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for method in _public(node.body, ast.FunctionDef):
                names[f"{node.name}.{method.name}"] = method.name
    return names


def referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_definition_has_a_shipped_caller():
    referenced = set().union(*(referenced_names(p) for p in CALLERS))
    unused = sorted(
        f"{path.stem}.{qualname}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in public_definitions(path).items()
        if name not in referenced
    )
    assert not unused, f"public but used only by unit tests (or not at all): {unused}"


def unused_imports(path):
    """`file:line name` for each name the module imports and never mentions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = [entry for path in IMPORTERS for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_star_import_succeeds(module):
    exec(f"from gscascade.{module} import *", {})
