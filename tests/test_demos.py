import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
LOOP_SEARCH = ROOT / "demos" / "discover_loops.py"


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]
    assert sorted((ROOT / "demos").glob("*.py")) == [*DEMOS, LOOP_SEARCH]


def run_script(path, capsys, *args):
    """What the script prints, run in this process as ``python path *args``."""
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", [str(path), *args])
        runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    # the demos are deterministic: a change to what one prints updates its golden file on purpose
    golden = ROOT / "tests" / "data" / f"demo_{demo.stem}.txt"
    assert run_script(demo, capsys) == golden.read_text()


def test_loop_search_demo_runs(capsys):
    # short: 82 loops of length <= 8, in about 0.1 s
    out = run_script(LOOP_SEARCH, capsys, "--maxlen", "8", "--keep", "100")
    assert out == (ROOT / "tests" / "data" / "demo_discover_loops.txt").read_text()


def test_readme_quick_start_prints_a_path_as_labels_and_ids(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, flags=re.S)
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    lines = run_script(script, capsys).splitlines()
    assert lines[2] == "(1,0)(1,0)(2,0) (0, 0, 6)"
