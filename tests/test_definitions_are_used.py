"""Every function, class and method of the package, and every name a module
assigns at its top level, has a reader outside the tests, so ``src/`` holds
no definition that only a test reaches and no constant that a deletion left
behind.  Dunders are exempt: Python reads them.  Like the import check
beside it, this parses the sources with ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINED = "src/ietskew/*.py"
READERS = ("src/ietskew/*.py", "demos/*.py", "perfbench/*.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, first line, last line) of each function, class and method, nested
    ones too, and of each name assigned by a top-level statement of the module."""
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not is_dunder(node.name):
            yield node.name, node.lineno, node.end_lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                if not is_dunder(name):
                    yield name, node.lineno, node.end_lineno


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
