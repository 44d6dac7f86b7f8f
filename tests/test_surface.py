"""Every public function, class and method in the package has a caller that ships.

A caller is any reference by name (a name, an attribute, an imported name or a
bare identifier string such as a `getattr` key) in `src/`, `scripts/`, `bench/`
or the acceptance suite. A re-export from the package's `__init__.py` is not a
use, and unit tests do not count: code that only unit tests reach belongs in
`tests/` (see `tests/oracles.py`) or nowhere.

A method or property of a class counts as used only when a caller reads it
as an attribute (`.name`) or names it in a string, so a local variable of the
same name does not keep it. The scan is still by name, so a dead method
escapes it when another class's attribute, field or method of the same name is
accessed: a `ClusterHierarchy.n` property would pass, since `.n` is also
`GaussianSet`'s. The same holds for every field of a dataclass in `src/`,
private classes included: a field that callers only construct or assign is
dead weight.
An imported name counts as a reference, so no module in `src/`, `scripts/`,
`tests/` or `bench/` may import a name it never uses.

Every parameter with a default of a function in `src/` is passed, by keyword
or by position, by some call of a function of that name in a shipped caller:
a default that only unit tests override is a test-only knob, and one that no
caller overrides is a constant. A call `ClassName(...)` is a call of
`ClassName.__init__`; the other dunder methods are not checked.

No module in `src/` reads the process environment (`os.environ`,
`os.getenv`): a run's inputs are its files and its command line.
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
TESTS = sorted((ROOT / "tests").glob("*.py"))
IMPORTERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").rglob("*.py")),
             *TESTS, *sorted((ROOT / "bench").glob("*.py"))]


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


def dataclass_fields(path):
    """`Class.field` -> field for every field of the dataclasses in `path`."""
    fields = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign):
                    fields[f"{node.name}.{statement.target.id}"] = statement.target.id
    return fields


def referenced_names(path):
    """(names, attributes): every name `path` references, and the subset it
    reads as an attribute or spells as an identifier string."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                attributes.add(node.value)
    return names | attributes, attributes


def shipped_references():
    """(names, attributes) of `referenced_names` over every shipped caller."""
    return (set().union(*found) for found in zip(*(referenced_names(p) for p in CALLERS)))


def test_every_public_definition_has_a_shipped_caller():
    names, attributes = shipped_references()
    unused = sorted(
        f"{path.stem}.{qualname}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in public_definitions(path).items()
        if name not in (attributes if "." in qualname else names)
    )
    assert not unused, f"public but used only by unit tests (or not at all): {unused}"


def test_every_dataclass_field_has_a_shipped_reader():
    _, attributes = shipped_references()
    unread = sorted(f"{path.stem}.{qualname}" for path in sorted(PACKAGE.glob("*.py"))
                    for qualname, name in dataclass_fields(path).items()
                    if name not in attributes)
    assert not unread, f"dataclass fields no shipped caller reads: {unread}"


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


def defaulted_parameters(path):
    """(called name, parameter, position) for every parameter with a default
    of a function in `path`. The called name of `__init__` is its class's;
    the position counts the arguments a call passes before it (None if it is
    keyword-only), and a method's does not count `self` or `cls`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name = node.name
        if name == "__init__":
            name = methods[id(node)]
        elif name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if id(node) in methods and not static else 0
        for at in range(len(positional) - len(args.defaults), len(positional)):
            found.append((name, positional[at].arg, at - skip))
        found += [(name, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return found


def passed_arguments(paths):
    """{called name: [(positional count, keywords)]} over every call in
    `paths`; a `*args` counts as every position, a `**kwargs` as every
    keyword (None)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return calls


def test_every_defaulted_parameter_is_passed_by_a_caller():
    calls = passed_arguments(CALLERS)
    dead = sorted(
        f"{path.stem}.{function}({parameter})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter, position in defaulted_parameters(path)
        if not any(keywords is None or parameter in keywords
                   or (position is not None and count > position)
                   for count, keywords in calls.get(function, ()))
    )
    assert not dead, f"defaulted parameters that no caller passes: {dead}"


def test_no_module_reads_the_process_environment():
    readers = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "getenv")))
    assert not readers, f"reads of the process environment: {readers}"
