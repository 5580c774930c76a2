"""Every function, class and method of the package has a reader outside the
tests, so ``src/`` holds no definition that only a test reaches.  Dunders
are exempt: Python calls them.  Like the import check beside it, this
parses the sources with ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINED = "src/ietskew/*.py"
READERS = ("src/ietskew/*.py", "demos/*.py", "perfbench/*.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(name, first line, last line) of each function, class and method, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno, node.end_lineno


def references(tree):
    """(name, line) of each name the module reads: a ``Name``, an ``Attribute``
    or a part of a dotted string such as "BratteliDiagram.path_to_floor"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from ((part, node.lineno) for part in parts)


def test_every_definition_is_read_outside_the_tests():
    readers = sorted(path for pattern in READERS for path in ROOT.glob(pattern))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in readers}
    read: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            read.setdefault(name, []).append((path, line))
    defined = sorted(ROOT.glob(DEFINED))
    assert len(defined) >= 10
    unread = [
        f"{path.relative_to(ROOT)}:{first}: {name}"
        for path in defined
        for name, first, last in definitions(trees[path])
        # a reference inside the definition itself, as by recursion, does not count
        if not any(where != path or not first <= line <= last for where, line in read.get(name, ()))
    ]
    assert unread == []
