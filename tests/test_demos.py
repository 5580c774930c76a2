import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
LOOP_SEARCH = ROOT / "demos" / "discover_loops.py"


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]
    assert sorted((ROOT / "demos").glob("*.py")) == [*DEMOS, LOOP_SEARCH]


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the demos are deterministic: a change to what one prints updates its golden file on purpose
    golden = ROOT / "tests" / "data" / f"demo_{demo.stem}.txt"
    assert run_python([str(demo)]) == golden.read_text()


def test_loop_search_demo_runs(monkeypatch, capsys):
    # in-process and short: 82 loops of length <= 8, in about 0.1 s
    monkeypatch.setattr(sys, "argv", [str(LOOP_SEARCH), "--maxlen", "8", "--keep", "100"])
    runpy.run_path(str(LOOP_SEARCH), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / "demo_discover_loops.txt").read_text()


def test_readme_quick_start_prints_a_path_as_labels_and_ids():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, flags=re.S)
    lines = run_python(["-c", block]).splitlines()
    assert lines[2] == "(1,0)(1,0)(2,0) (0, 0, 6)"
