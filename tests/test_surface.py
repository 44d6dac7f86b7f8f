"""Every public function and class in the package has a caller that ships.

A caller is any reference by name (a name, an attribute, an imported name or a
bare identifier string such as a `getattr` key) in `src/`, `scripts/`, `bench/`
or the acceptance suite. A re-export from the package's `__init__.py` is not a
use, and unit tests do not count: code that only unit tests reach belongs in
`tests/` (see `tests/oracles.py`) or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gscascade"
CALLERS = [
    *sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").rglob("*.py")),
    *sorted((ROOT / "bench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def public_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


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
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_definitions(path) - referenced
    )
    assert not unused, f"public but used only by unit tests (or not at all): {unused}"
