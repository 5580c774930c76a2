"""Every name a module imports is used in that module.  The project ships
no linter, so this parses the package, the tests and the demos with ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/ietskew/*.py", "tests/*.py", "demos/*.py")


def imported(tree):
    """(name, line) of each name an import binds; ``__future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def used(tree):
    """Every name the module reads, those in quoted annotations too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used(ast.parse(annotation.value, mode="eval"))
    return names


def test_every_imported_name_is_used():
    paths = sorted(path for pattern in SOURCES for path in ROOT.glob(pattern))
    assert len(paths) >= 30
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported(tree) if name not in names]
    assert unused == []


def package_imports(tree):
    """(name, line) of each name a module imports from another ``ietskew`` module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "ietskew":
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(ROOT.glob("src/ietskew/*.py"))
    assert len(paths) >= 10
    private = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = package_imports(tree)
        private += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in names if name.startswith("_")]
    assert private == []
