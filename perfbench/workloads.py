"""Workload definitions: seeded command lines and checks of their output.

Each workload is a list of ``ietskew`` CLI commands drawn from the seed.
The program sees only the argv; the checks below read what the commands
wrote and return a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CHECK_NAMES = (
    "tower_oracle_equivalence",
    "cocycle_identities",
    "bratteli_dictionary",
    "tail_cocycle_identity",
    "tail_orbit_equivalence",
    "aperiodicity_certificate",
    "level_counting_cocycle",
    "maharam_invariance",
    "psi_zero_consistency",
    "continuity_modulus",
    "fault_injection",
)

WORKLOADS = ("verify", "table", "sweep")

# Instances each workload runs, and the table levels.  Sizes are fixed; only
# the parameters come from the seed, so runs on different seeds do the same
# amount of work.
VERIFY_INSTANCES = ("golden_triple", "genus2_rank1", "genus2_rank2")
TABLE_LEVELS = (("golden_triple", 5), ("genus2_rank2", 2))
SWEEP_INSTANCE = "genus2_rank2"
SWEEP_STEPS = 64
SWEEP_LEVEL = 4
SWEEP_SAMPLES = 8  # grid points recomputed through the single-psi path
SWEEP_REL_TOL = 1e-12
FIBER_ZERO_TOL = 1e-10


@dataclass
class Command:
    """One CLI invocation and what its check needs to know."""

    argv: list[str]
    instance: str
    out: str | None = None
    expect: dict = field(default_factory=dict)


def instances_of(workload: str) -> tuple[str, ...]:
    if workload == "verify":
        return VERIFY_INSTANCES
    if workload == "table":
        return tuple(name for name, _ in TABLE_LEVELS)
    if workload == "sweep":
        return (SWEEP_INSTANCE,)
    raise ValueError(f"unknown workload {workload!r}")


def make_commands(workload: str, seed: int, outdir: str, m_of: dict[str, int]) -> list[Command]:
    """The workload's commands for this seed; output files go to ``outdir``.

    ``m_of`` maps an instance name to the rank m of its cocycle, which sets
    how many coordinates a parameter psi has.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [
            Command(["verify", "--instance", name, "--seed", str(rng.randrange(2**31))], name)
            for name in VERIFY_INSTANCES
        ]
    if workload == "table":
        commands = []
        for name, level in TABLE_LEVELS:
            psi = tuple(round(rng.uniform(-1.0, 1.0), 6) for _ in range(m_of[name]))
            out = str(Path(outdir) / f"table-{name}.csv")
            argv = [
                "maharam", "--instance", name, "--level", str(level),
                "--psi=" + ",".join(repr(x) for x in psi), "--out", out,
            ]
            commands.append(Command(argv, name, out, {"level": level, "psi": psi}))
        return commands
    if workload == "sweep":
        axes = []
        argv = ["continuity", "--instance", SWEEP_INSTANCE, "--level", str(SWEEP_LEVEL)]
        for _ in range(m_of[SWEEP_INSTANCE]):
            lo = round(-1.0 + rng.uniform(-0.25, 0.25), 4)
            hi = round(1.0 + rng.uniform(-0.25, 0.25), 4)
            axes.append((lo, hi))
            argv.append(f"--grid={lo!r}:{hi!r}:{SWEEP_STEPS}")
        out = str(Path(outdir) / "sweep.csv")
        argv += ["--out", out]
        samples = tuple(
            tuple(rng.randrange(SWEEP_STEPS + 1) for _ in axes) for _ in range(SWEEP_SAMPLES)
        )
        expect = {"axes": tuple(axes), "steps": SWEEP_STEPS, "level": SWEEP_LEVEL,
                  "samples": samples}
        return [Command(argv, SWEEP_INSTANCE, out, expect)]
    raise ValueError(f"unknown workload {workload!r}")


def add_reference(cmd: Command, built) -> None:
    """Store the measures the check compares a sweep against.

    For each sampled grid point, the psi the CLI builds from the ``--grid``
    bounds and the mass of every cylinder of the default family, computed
    one psi at a time by ``MaharamMeasure``.  Call it before tracing starts,
    so these builds are not counted as the command's work.
    """
    if "samples" not in cmd.expect:
        return
    from ietskew.maharam import MaharamMeasure, default_cylinder_family

    axes, steps = cmd.expect["axes"], cmd.expect["steps"]
    cylinders = default_cylinder_family(built.diagram, built.m, level=cmd.expect["level"])
    reference = {}
    for index in cmd.expect["samples"]:
        psi = tuple(lo + (hi - lo) * i / steps for (lo, hi), i in zip(axes, index))
        measure = MaharamMeasure(built.diagram, built.phi, psi)
        reference[index] = (psi, [measure.cylinder_measure(p, a) for p, a in cylinders])
    cmd.expect["reference"] = reference


@dataclass
class Checked:
    """Outcome of checking one command: problems found, rows and psi points."""

    problems: list[str]
    rows: int = 0
    psi_points: int = 0


def check(workload: str, cmd: Command, rc: int, stdout: str, facts: dict) -> Checked:
    """Check one command's output.

    ``facts`` holds what the benchmark computed from the built instance:
    ``d`` (intervals), ``m`` (cocycle rank) and ``heights`` (a function of
    the level giving the tower heights).
    """
    if rc != 0:
        return Checked([f"exit code {rc}"])
    if workload == "verify":
        return _check_verify(stdout)
    if workload == "table":
        return _check_table(cmd, facts)
    return _check_sweep(cmd, facts)


def _check_verify(stdout: str) -> Checked:
    lines = [line.split() for line in stdout.splitlines() if line.strip()]
    got = [(parts[0], parts[1]) for parts in lines if len(parts) >= 2]
    want = [("PASS", name) for name in CHECK_NAMES]
    if got != want:
        return Checked([f"verify printed {got}, want all eleven checks PASS"])
    return Checked([], rows=len(got))


def _finite_positive(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value > 0.0


def _check_table(cmd: Command, facts: dict) -> Checked:
    level, psi, m = cmd.expect["level"], cmd.expect["psi"], facts["m"]
    problems: list[str] = []
    header = [f"psi_{i + 1}" for i in range(m)] + ["level", "path", "fiber", "measure"]
    rows = n_paths = 0
    prev_key = None
    fibers: set[str] = set()
    zero_fiber = "(" + ",".join("0" for _ in range(m)) + ")"
    zero_mass: list[float] = []
    with open(cmd.out, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            return Checked(["table header differs"])
        for row in reader:
            rows += 1
            if tuple(float(x) for x in row[:m]) != psi or row[m] != str(level):
                problems.append(f"row {rows}: wrong psi or level")
                break
            path, fiber, measure = row[m + 1], row[m + 2], row[m + 3]
            key = (path, fiber)
            if prev_key is not None and key <= prev_key:
                problems.append(f"row {rows}: rows not strictly sorted (duplicate?)")
                break
            if prev_key is None or path != prev_key[0]:
                n_paths += 1
            prev_key = key
            fibers.add(fiber)
            if not _finite_positive(measure):
                problems.append(f"row {rows}: measure {measure} not finite and positive")
                break
            if fiber == zero_fiber:
                zero_mass.append(float(measure))
    if problems:
        return Checked(problems)
    parsed = {tuple(int(x) for x in f.strip("()").split(",")) for f in fibers}
    bound = max((abs(x) for f in parsed for x in f), default=0)
    box = (2 * bound + 1) ** m
    if len(parsed) != box:
        problems.append(f"fibers do not fill the box [-{bound},{bound}]^{m}")
    want_paths = sum(facts["heights"](level))
    if n_paths != want_paths:
        problems.append(f"{n_paths} paths, want sum of level-{level} heights = {want_paths}")
    if rows != want_paths * box:
        problems.append(f"{rows} rows, want {want_paths} paths x {box} fibers")
    total = math.fsum(zero_mass)
    if not abs(total - 1.0) <= FIBER_ZERO_TOL:
        problems.append(f"fiber-0 mass {total!r} differs from 1 by more than {FIBER_ZERO_TOL}")
    return Checked(problems, rows=rows, psi_points=1)


def _check_sweep(cmd: Command, facts: dict) -> Checked:
    axes, steps, m, d = cmd.expect["axes"], cmd.expect["steps"], facts["m"], facts["d"]
    reference = cmd.expect["reference"]
    header = (
        ["grid_step", "cylinder_id"] + [f"psi_{i + 1}" for i in range(m)]
        + ["measure", "adjacent_delta"]
    )
    points = (steps + 1) ** m
    cylinders = 2 * d  # min and max path of each level-k tower
    # (cylinder, grid index) -> (measure, adjacent delta) as printed
    values: dict[tuple[int, tuple[int, ...]], tuple[float, float]] = {}
    rows = 0
    with open(cmd.out, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            return Checked(["sweep header differs"])
        for row in reader:
            rows += 1
            cid = int(row[1])
            if not 0 <= cid < cylinders:
                return Checked([f"row {rows}: cylinder id {cid} out of range"])
            psi = tuple(float(text) for text in row[2 : 2 + m])
            grid_index = []
            for (lo, hi), x in zip(axes, psi):
                pos = (x - lo) / (hi - lo) * steps
                if abs(pos - round(pos)) > 1e-6 or not 0 <= round(pos) <= steps:
                    return Checked([f"row {rows}: psi {x!r} is off the grid"])
                grid_index.append(round(pos))
            index = tuple(grid_index)
            if not _finite_positive(row[2 + m]):
                return Checked([f"row {rows}: measure {row[2 + m]} not finite and positive"])
            measure, delta = float(row[2 + m]), float(row[3 + m])
            if not (math.isfinite(delta) and delta >= 0.0):
                return Checked([f"row {rows}: adjacent delta {row[3 + m]} invalid"])
            if index in reference:
                want_psi, want = reference[index]
                if psi != want_psi or not abs(measure - want[cid]) <= SWEEP_REL_TOL * want[cid]:
                    return Checked([
                        f"row {rows}: cylinder {cid} at psi {psi} has measure {measure!r}, "
                        f"want {want[cid]!r} at psi {want_psi}"
                    ])
            if (cid, index) in values:
                return Checked([f"row {rows}: cylinder {cid} repeated at grid point {index}"])
            values[(cid, index)] = (measure, delta)
    if rows != points * cylinders:  # ids in range and none repeated: all are there
        return Checked([f"{rows} rows, want {points} points x {cylinders} cylinders"])
    # Each delta is the largest change to a grid neighbour one step up.
    scale = max(measure for measure, _ in values.values())
    for (cid, index), (measure, delta) in values.items():
        want = 0.0
        for axis in range(m):
            if index[axis] < steps:
                up = index[:axis] + (index[axis] + 1,) + index[axis + 1 :]
                want = max(want, abs(values[(cid, up)][0] - measure))
        if not abs(delta - want) <= SWEEP_REL_TOL * scale:
            return Checked([f"cylinder {cid} at grid point {index}: delta {delta!r}, want {want!r}"])
    return Checked([], rows=rows, psi_points=points)
