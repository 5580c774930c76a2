"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end tests run every workload once per seed (``--seconds 0``
runs each command once) and take a few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ietskew import cli  # noqa: E402
from ietskew.instances import build_instance, load_instance  # noqa: E402


def _m_of(workload):
    return {name: build_instance(load_instance(name)).m for name in workloads.instances_of(workload)}


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argv_comes_from_the_seed(workload):
    m_of = _m_of(workload)
    one = [c.argv for c in workloads.make_commands(workload, 1, "OUT", m_of)]
    again = [c.argv for c in workloads.make_commands(workload, 1, "OUT", m_of)]
    two = [c.argv for c in workloads.make_commands(workload, 2, "OUT", m_of)]
    assert one == again
    assert one != two


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_pass_the_output_checks(workload):
    for seed in (11, 12):
        result = _run(workload, seed, trace=0)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly_for_one_seed(workload):
    first, second = _run(workload, 5, trace=1), _run(workload, 5, trace=1)
    counts = [name for name, unit in run.per_layer_metrics() if unit in ("count", "bytes")]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }
    assert first["metrics"]["cli.main.calls"]["value"] == len(
        workloads.make_commands(workload, 5, "OUT", _m_of(workload))
    )


def test_pace_times_chunks_during_a_command_only():
    speed = pace.Pace()
    speed.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:  # signal handlers run between bytecodes
        pass
    spent = speed.stop()
    n = len(speed.chunks)
    assert n >= 2
    assert sum(speed.chunks) <= spent < time.perf_counter() - start
    os.kill(os.getpid(), signal.SIGALRM)  # a late alarm is ignored, not fatal
    assert len(speed.chunks) == n
    assert speed.scale([pace.NOMINAL_CHUNK_S] * 3) == pytest.approx(1.0)
    assert speed.scale([2 * pace.NOMINAL_CHUNK_S]) == pytest.approx(0.5)


def test_tracing_restores_the_package():
    rec = spans.Recorder()
    original = cli.main
    with spans.Tracing(rec):
        assert cli.main is not original
        cli_rc = cli.main(["inspect", "--instance", "golden_triple"])
    assert cli_rc == 0 and cli.main is original
    by_name = spans.aggregate(rec.arrays(), rec.names)
    root = by_name["cli.main"]
    assert root["calls"] == 1
    # self times of all spans add up to the root span's duration
    assert sum(v["self_s"] for v in by_name.values()) == pytest.approx(root["s"], rel=1e-9)


def _table(tmp_path, level=1):
    out = tmp_path / "t.csv"
    cmd = workloads.Command(
        ["maharam", "--instance", "golden_triple", "--level", str(level), "--psi", "0.25",
         "--out", str(out)],
        "golden_triple", str(out), {"level": level, "psi": (0.25,)},
    )
    assert cli.main(cmd.argv) == 0
    built = build_instance(load_instance("golden_triple"))
    facts = {"d": built.diagram.d, "m": built.m, "heights": built.diagram.heights}
    return cmd, facts, out.read_text().splitlines(keepends=True)


def test_table_check_accepts_cli_output_and_rejects_damage(tmp_path):
    cmd, facts, lines = _table(tmp_path)
    assert workloads.check("table", cmd, 0, "", facts).problems == []
    out = Path(cmd.out)
    out.write_text("".join(lines[:-1]))
    assert workloads.check("table", cmd, 0, "", facts).problems
    i = next(i for i, line in enumerate(lines) if ",(0)," in line)
    head, value = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{float(value) * 1.001!r}\n"
    out.write_text("".join(lines))
    assert workloads.check("table", cmd, 0, "", facts).problems
    assert workloads.check("table", cmd, 2, "", facts).problems


def test_sweep_check_accepts_cli_output_and_rejects_damage(tmp_path):
    out = tmp_path / "s.csv"
    built = build_instance(load_instance("genus2_rank2"))
    axes = ((-0.75, 1.25), (-1.0, 0.5))
    steps = 4
    cmd = workloads.Command(
        ["continuity", "--instance", "genus2_rank2", "--level", "4",
         "--grid=-0.75:1.25:4", "--grid=-1.0:0.5:4", "--out", str(out)],
        "genus2_rank2", str(out),
        {"axes": axes, "steps": steps, "level": 4, "samples": ((0, 0), (1, 3), (4, 4))},
    )
    workloads.add_reference(cmd, built)
    assert cli.main(cmd.argv) == 0
    facts = {"d": built.diagram.d, "m": built.m}
    assert workloads.check("sweep", cmd, 0, "", facts).problems == []
    lines = out.read_text().splitlines(keepends=True)

    def damaged(i, column, factor):
        fields = lines[i].rstrip("\n").split(",")
        fields[column] = repr(float(fields[column]) * factor)
        out.write_text("".join(lines[:i] + [",".join(fields) + "\n"] + lines[i + 1 :]))
        return workloads.check("sweep", cmd, 0, "", facts).problems

    sampled = next(i for i, line in enumerate(lines) if line.split(",")[2:4] == ["-0.25", "0.125"])
    assert damaged(sampled, 4, 1.0 + 1e-9)  # a sampled measure, recomputed
    unsampled = next(i for i, line in enumerate(lines) if line.split(",")[2:4] == ["0.25", "-0.625"])
    assert damaged(unsampled, 4, 1.001)  # caught by the neighbours' deltas
    assert damaged(unsampled, 5, 1.001)  # a delta
    out.write_text("".join(lines[:-1]))
    assert workloads.check("sweep", cmd, 0, "", facts).problems


def test_verify_check_needs_all_eleven_pass():
    good = "".join(f"PASS   {name} (0.01s)\n" for name in workloads.CHECK_NAMES)
    assert workloads.check("verify", None, 0, good, {}).problems == []
    bad = good.replace("PASS   fault_injection", "FAIL   fault_injection")
    assert workloads.check("verify", None, 0, bad, {}).problems
    assert workloads.check("verify", None, 0, good.split("\n", 1)[1], {}).problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
