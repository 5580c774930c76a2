"""numpy is the only runtime dependency: the package imports nothing else
from outside the standard library.  sympy, scipy and hypothesis are for
tests and benchmarks only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ietskew"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # relative imports stay inside the package
                continue
            outside += [f"{path.name}: {name}" for name in modules if name.split(".")[0] not in ALLOWED]
    assert outside == []
