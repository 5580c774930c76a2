"""The mutation audit stays applicable: every entry of
``tests/mutation_audit.py`` finds its text and names a test that exists, so
an edit that moves a mutated line fails here, not only when the audit runs."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutation_audit", ROOT / "tests" / "mutation_audit.py")
audit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(audit)


@pytest.mark.parametrize("what, name, old, new, test", audit.MUTATIONS, ids=[m[0] for m in audit.MUTATIONS])
def test_each_mutation_finds_its_text_and_its_test(what, name, old, new, test):
    assert (ROOT / name).read_text().count(old) == 1
    path, function = test.split("::")
    assert re.search(rf"^def {re.escape(function)}\(", (ROOT / path).read_text(), re.MULTILINE)
