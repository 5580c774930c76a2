"""ietskew benchmark: the CLI on the packaged instances, end to end and by layer.

Run one workload (one process, one thread):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

or every workload, several seeds each, with a table of medians and spreads:

    python3 perfbench/run.py --workload all --seed 1 --runs 3 --seconds 36

The commands run in this process through ``ietskew.cli.main(argv)``,
imported from ``src/`` next to this directory.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with times scaled
to a nominal host speed (``pace.py``), and with ``--trace 1`` the per-layer
ones.  A record with the argv, the per-command samples and the
environment goes to ``perfbench/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"
SETUP_FIRST = 2  # set-up probes before the first command
SETUP_SHARE = 0.1  # then probes after each command for this share of its time
SETUP_CHUNKS = 4  # reference chunks right before and right after each probe

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rows_per_s", "1/s"),
)

# Imports the package and builds the named instances in a fresh interpreter;
# prints the package path and the seconds taken.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ietskew.cli
from ietskew.instances import build_instance, load_instance
for name in sys.argv[2:]:
    build_instance(load_instance(name))
elapsed = time.perf_counter() - t0
print(ietskew.__file__)
print(repr(elapsed))
"""


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric the traced run reports, with its unit, in a fixed order."""
    import spans

    out = []
    for _module, _attr, name, kind in spans.TARGETS:
        out += [(metric, "s" if metric.endswith(".s") else "count")
                for metric in spans.metric_names(name, kind)]
    out += [(f"verification.{check}.s", "s") for check in workloads.CHECK_NAMES]
    out += [(f"{layer}.self_s", "s") for layer in spans.LAYERS]
    out += [
        ("cli.output_bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def measure_setup(instances) -> float:
    """Seconds to import the package and build the instances, timed in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *instances],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    path, elapsed = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported ietskew from {path}")
    return float(elapsed)


class Runner:
    """Runs commands of one workload in this process and checks them."""

    def __init__(self, workload: str, seed: int, outdir: str):
        from ietskew import cli
        from ietskew.instances import build_instance, load_instance

        self.cli = cli
        self.workload = workload
        self.facts = {}
        built_of = {}
        for name in workloads.instances_of(workload):
            built = built_of[name] = build_instance(load_instance(name))
            self.facts[name] = {"d": built.diagram.d, "m": built.m, "heights": built.diagram.heights}
        m_of = {name: built.m for name, built in built_of.items()}
        self.commands = workloads.make_commands(workload, seed, outdir, m_of)
        for cmd in self.commands:
            workloads.add_reference(cmd, built_of[cmd.instance])
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, cmd: workloads.Command, pace=None) -> tuple[float, workloads.Checked, int]:
        """Seconds inside ``cli.main``, the check's verdict and bytes written.

        With a ``pace.Pace``, reference chunks run during the command and
        their time is left out of the seconds returned.
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        rc = None
        spent = 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if pace is not None:
                    pace.start()
                try:
                    rc = self.cli.main(list(cmd.argv))
                finally:
                    if pace is not None:
                        spent = pace.stop()
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a dead benchmark
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - spent
        self.attempted += 1
        if rc is None:
            checked = workloads.Checked([error])
        else:
            checked = workloads.check(self.workload, cmd, rc, stdout.getvalue(), self.facts[cmd.instance])
        if checked.problems:
            self.failures.append(
                {"argv": cmd.argv, "problems": checked.problems, "stderr": stderr.getvalue()[-2000:]}
            )
        out_bytes = len(stdout.getvalue().encode()) + len(stderr.getvalue().encode())
        if cmd.out and os.path.exists(cmd.out):
            out_bytes += os.path.getsize(cmd.out)
            os.remove(cmd.out)
        return elapsed, checked, out_bytes

    def run_pass(self) -> dict:
        """Every command once; returns the pass totals."""
        total = {"seconds": 0.0, "rows": 0, "psi_points": 0, "bytes": 0}
        for cmd in self.commands:
            elapsed, checked, out_bytes = self.run(cmd)
            total["seconds"] += elapsed
            total["rows"] += checked.rows
            total["psi_points"] += checked.psi_points
            total["bytes"] += out_bytes
        return total


def run_untraced(runner: Runner, deadline: float) -> tuple[dict, dict]:
    """Commands round-robin until the next one would end more than half
    its time past the deadline, so runs end near the deadline on average.

    Every command runs at least once.  Set-up probes run before the first
    command and after each one, for ``SETUP_SHARE`` of its time, so that
    they sample the host's speed across the whole run.  Both times are
    scaled to nominal host speed by reference chunks (see ``pace.py``):
    each command's time by the chunks run during it, and each probe's by
    the chunks run right before and after it.  ``wall_s`` sums each
    command's mean scaled time; ``setup_s`` is the median scaled probe.
    Returns the metrics and the record.
    """
    import pace

    speed = pace.Pace()
    instances = workloads.instances_of(runner.workload)

    def probe() -> tuple[float, float]:
        chunks = [speed.chunk() for _ in range(SETUP_CHUNKS)]
        raw = measure_setup(instances)
        chunks += [speed.chunk() for _ in range(SETUP_CHUNKS)]
        return raw, raw * speed.scale(chunks)

    setup = [probe() for _ in range(SETUP_FIRST)]
    n = len(runner.commands)
    samples: list[list[float]] = [[] for _ in range(n)]
    sample_scale: list[list[float]] = [[] for _ in range(n)]
    rows = [0] * n
    points = [0] * n
    cost: list[float] = [0.0] * n  # run, check and probes, to predict the next one
    i = 0
    while True:
        t0 = time.perf_counter()
        first_chunk = len(speed.chunks)
        elapsed, checked, _ = runner.run(runner.commands[i % n], speed)
        samples[i % n].append(elapsed)
        if len(speed.chunks) == first_chunk:  # shorter than the interval
            speed.chunks.append(speed.chunk())
        sample_scale[i % n].append(speed.scale(speed.chunks[first_chunk:]))
        rows[i % n], points[i % n] = checked.rows, checked.psi_points
        t1 = time.perf_counter()
        while True:
            setup.append(probe())
            if time.perf_counter() - t1 >= SETUP_SHARE * elapsed:
                break
        cost[i % n] = time.perf_counter() - t0
        i += 1
        if i == n:  # later repeats only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if i >= n and time.perf_counter() + cost[i % n] / 2 > deadline:
            break
    # The host's speed switches between modes 1.5 to 2x apart.  The mean
    # weighs each mode by the time it held; a median jumps from one mode to
    # the other when neither held for most of the run (see README.md).
    wall_raw = sum(statistics.mean(s) for s in samples)
    wall = sum(
        statistics.mean(raw * scale for raw, scale in zip(s, sc))
        for s, sc in zip(samples, sample_scale)
    )
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "rows_per_s": sum(rows) / wall,
    }
    record = {
        "command_seconds_raw": samples,
        "command_spread_raw": [_spread(s) for s in samples],
        "command_scale": sample_scale,
        "wall_raw_s": wall_raw,
        "speed_scale": speed.scale(),
        "reference_chunks": len(speed.chunks),
        "reference_chunk_median_s": statistics.median(speed.chunks),
        "rows_per_pass": sum(rows),
        "psi_points_per_pass": sum(points),
        "psi_points_per_s": sum(points) / wall,
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_scaled_s": [scaled for _, scaled in setup],
        "setup_raw_median_s": statistics.median(raw for raw, _ in setup),
        "setup_spread": _spread([scaled for _, scaled in setup]),
    }
    return metrics, record


def run_traced(runner: Runner, deadline: float, span_file: Path) -> tuple[dict, dict]:
    """One untraced pass, then traced passes until the deadline.

    Counts come from the first traced pass; times are medians over the
    traced passes.  The overhead is the traced pass time minus the
    untraced one.
    """
    import spans

    untraced = runner.run_pass()
    rec = spans.Recorder()
    passes = []
    with spans.Tracing(rec):
        while True:
            t0 = time.perf_counter()
            first = len(rec)
            counters_before = dict(rec.counters)
            totals = runner.run_pass()
            by_name = spans.aggregate(rec.arrays(first, len(rec)), rec.names)
            counters = {k: v - counters_before.get(k, 0) for k, v in rec.counters.items()}
            passes.append((totals, by_name, counters, len(rec) - first))
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
    spans.write_spans(span_file, rec)

    totals0, by_name0, counters0, n_spans0 = passes[0]
    values: dict[str, float] = {}
    for _module, _attr, name, kind in spans.TARGETS:
        for metric in spans.metric_names(name, kind):
            if metric == f"{name}.s":
                values[metric] = statistics.median([p[1].get(name, {}).get("s", 0.0) for p in passes])
            elif metric in (f"{name}.calls", f"{name}.builds"):
                values[metric] = by_name0.get(name, {}).get("calls", 0)
            else:
                values[metric] = counters0.get(metric, 0)
    for check in workloads.CHECK_NAMES:
        name = f"verification.{check}"
        values[f"{name}.s"] = statistics.median([p[1].get(name, {}).get("s", 0.0) for p in passes])
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = statistics.median([
            sum(v["self_s"] for k, v in p[1].items() if k.split(".")[0] == layer)
            for p in passes
        ])
    traced_wall = min(p[0]["seconds"] for p in passes)
    values["cli.output_bytes"] = totals0["bytes"]
    values["trace.spans"] = n_spans0
    values["trace.overhead_s"] = traced_wall - untraced["seconds"]
    record = {
        "untraced_pass_s": untraced["seconds"],
        "traced_pass_s": [p[0]["seconds"] for p in passes],
        "span_file": str(span_file.relative_to(ROOT)),
        "spans_recorded": len(rec),
    }
    return values, record


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    started = time.perf_counter()
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as outdir:
        runner = Runner(workload, seed, outdir)
        deadline = time.perf_counter() + seconds
        if trace:
            metrics, detail = run_traced(runner, deadline, RUNS / f"{workload}-spans.npz")
        else:
            metrics, detail = run_untraced(runner, deadline)
    import numpy

    units = dict(per_layer_metrics() if trace else END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": [cmd.argv for cmd in runner.commands],
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "detail": detail,
        "elapsed_s": time.perf_counter() - started,
    }


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def run_all(seed: int, runs: int, seconds: float) -> int:
    """Each workload on ``runs`` seeds untraced, then once traced, each run
    in its own process; prints medians, quartiles and spreads across runs."""
    summary = {}
    ok = True
    for workload in workloads.WORKLOADS:
        records = {0: [], 1: []}
        for trace, seeds in ((0, range(seed, seed + runs)), (1, [seed])):
            for s in seeds:
                argv = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(s), "--seconds", str(seconds), "--trace", str(trace),
                ]
                path = RUNS / f"{workload}-seed{s}-trace{trace}.json"
                path.unlink(missing_ok=True)
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
                if proc.returncode != 0 or not path.exists():
                    print(f"{workload} seed {s} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr}", file=sys.stderr)
                    ok = False
                    continue
                records[trace].append(json.loads(path.read_text()))
        untraced = records[0]
        attempted = sum(r["attempted"] for r in untraced)
        failed = sum(r["failed"] for r in untraced)
        print(f"\n== {workload}: {len(untraced)} runs, seeds {seed}..{seed + runs - 1}")
        print(f"  {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        table = {}
        columns = [(name, unit, lambda r, n=name: r["metrics"][n]["value"]) for name, unit in END_TO_END]
        columns += [
            ("psi_points_per_s", "1/s", lambda r: r["detail"]["psi_points_per_s"]),
            ("wall_raw_s", "s", lambda r: r["detail"]["wall_raw_s"]),
            ("setup_raw_s", "s", lambda r: r["detail"]["setup_raw_median_s"]),
        ]
        for name, unit, get in columns:
            values = [get(r) for r in untraced]
            if not values:
                continue
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1 else values * 3)
            spread = (q3 - q1) / med if med else float("nan")
            table[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": values}
            print(f"  {name:16s} {unit:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")
        ratio = failed / attempted if attempted else float("nan")
        ok = ok and failed == 0
        print(f"  {'failed_ratio':16s} {'1':6s} {ratio:12.5g}   ({failed} of {attempted} commands)")
        traced = records[1][0]["metrics"] if records[1] else None
        if traced:
            ok = ok and records[1][0]["failed"] == 0
            print(f"  {'trace overhead':16s} {'s':6s} {traced['trace.overhead_s']['value']:12.5g}")
        summary[workload] = {"end_to_end": table, "failed_ratio": ratio, "per_layer": traced}
    RUNS.mkdir(exist_ok=True)
    (RUNS / "summary.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload with --workload all")
    args = parser.parse_args(argv)
    if not (SRC / "ietskew" / "__init__.py").is_file():
        print(f"error: no ietskew sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.runs, args.seconds)
    sys.path.insert(0, str(SRC))
    import ietskew

    if not Path(ietskew.__file__).resolve().is_relative_to(SRC):
        print(f"error: ietskew imported from {ietskew.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # One CPU for the commands, the reference chunks and the set-up probes
    # (children inherit it), so the chunks time the CPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1))
    for failure in record["failures"]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['problems']}", file=sys.stderr)
    print(result_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
