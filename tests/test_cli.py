import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from itertools import product, zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietskew import bratteli, cli, skew, verification
from ietskew.cli import main
from ietskew.cocycles import CertificateInconclusive
from ietskew.maharam import (
    MaharamMeasure,
    MeasureTable,
    build_measure_table,
    continuity_profile,
    default_cylinder_family,
)


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def child_env(*drop):
    """The environment of a child python, with src on its PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_inspect_packaged(capsys):
    assert run_cli("inspect", "--instance", "golden_triple") == 0
    out = capsys.readouterr().out
    assert "PF eigenvalue" in out and "golden_triple" in out


def test_inspect_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("inspect", "--instance", "genus2_rank1", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["d"] == 4
    assert payload["q"] == [6, 14, 17, 8]
    assert payload["positive"] is True


def test_missing_instance_is_validation_error(capsys):
    assert run_cli("inspect", "--instance", "no_such_thing") == 1
    assert "packaged" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 3,')
    assert run_cli("inspect", "--instance", str(bad)) == 1
    assert "line" in capsys.readouterr().err


def test_unsuitable_loop_hint(tmp_path, capsys):
    bad = tmp_path / "flat.json"
    bad.write_text(
        json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["t"]})
    )
    assert run_cli("inspect", "--instance", str(bad)) == 1
    err = capsys.readouterr().err
    assert "not positive" in err and "repetitions" in err


def test_eigencocycles_zero_rank(tmp_path, capsys):
    rot = tmp_path / "rot.json"
    rot.write_text(
        json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["t", "b"]})
    )
    assert run_cli("eigencocycles", "--instance", str(rot)) == 0
    out = capsys.readouterr().out
    assert "no periodic-type skew-product on this loop" in out


def test_eigencocycles_checks_an_explicit_phi_on_a_zero_rank_loop(tmp_path, capsys):
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["t", "b"], "phi": [[1], [0]]}))
    out = tmp_path / "eig.json"
    assert run_cli("eigencocycles", "--instance", str(rot), "--out", str(out)) == 2
    assert "explicit phi fixed by A^T: False" in capsys.readouterr().out
    assert json.loads(out.read_text())["explicit_phi_periodic"] is False


def test_eigencocycles_computes_the_basis_once(monkeypatch, capsys):
    # every module attribute bound to skew.eigencocycles counts its calls
    calls = []
    real = skew.eigencocycles

    def counted(a):
        calls.append(a)
        return real(a)

    for module in [m for k, m in sys.modules.items() if k.startswith("ietskew")]:
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, counted)
    assert run_cli("eigencocycles", "--instance", "genus2_rank2") == 0
    assert len(calls) == 1
    assert "eigenvector" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["inspect"], ["eigencocycles"], ["certify"], ["continuity", "--level", "2"], ["verify"]],
    ids=lambda argv: argv[0],
)
def test_format_json_alone_prints_only_json(argv, capsys):
    # the text lines go to stderr, so stdout parses as one JSON document
    assert run_cli(*argv, "--instance", "golden_triple", "--format", "json") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)
    assert captured.err


def test_eigencocycles_validates_explicit_phi(tmp_path, capsys):
    data = json.loads(
        (json.dumps({"d": 4, "top": [1, 2, 3, 4], "bottom": [4, 3, 2, 1],
                     "loop": list("bttbtbtbbtt"), "phi": [[1], [-1], [0], [1]]}))
    )
    path = tmp_path / "badphi.json"
    path.write_text(json.dumps(data))
    assert run_cli("eigencocycles", "--instance", str(path)) == 2
    assert "False" in capsys.readouterr().out


def test_certify_roundtrip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--instance", "golden_triple", "--out", str(out)) == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] is True
    assert cert["invariant_factors"] == [1]
    assert set(cert["prefix_letters"]) == {1, 2, 3}


def test_certify_requires_periodic_type(tmp_path, capsys):
    data = {
        "d": 4,
        "top": [1, 2, 3, 4],
        "bottom": [4, 3, 2, 1],
        "loop": list("bttbtbtbbtt"),
        "phi": [[1], [-1], [0], [1]],
    }
    path = tmp_path / "notperiodic.json"
    path.write_text(json.dumps(data))
    assert run_cli("certify", "--instance", str(path)) == 1
    assert "not periodic type" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "maharam", "continuity"])
def test_measure_commands_refuse_a_phi_not_of_periodic_type(command, tmp_path, capsys):
    # the Maharam measures, like the certificate, need A^T phi = phi
    data = json.loads((ROOT / "src" / "ietskew" / "instances" / "golden_triple.json").read_text())
    data["phi"] = [[1], [0], [0]]
    path = tmp_path / "notperiodic.json"
    path.write_text(json.dumps(data))
    assert run_cli(command, "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cocycle is not fixed by the loop (not periodic type)\n"


@pytest.mark.parametrize("command", [name for name, (_, flags, _, _) in cli.SUBCOMMANDS.items() if "--out" in flags])
def test_an_unwritable_out_exits_1_with_one_line(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    level = ["--level", "2"] if command == "maharam" else []
    assert run_cli(command, "--instance", "golden_triple", "--out", str(out), *level) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert str(out) in err


def test_more_intervals_than_a_byte_holds_exits_1_with_one_line(tmp_path, capsys):
    labels = list(range(1, 257))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"d": 256, "top": labels, "bottom": labels[::-1], "loop": ["t", "b"]}))
    assert run_cli("inspect", "--instance", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: instance 'wide': 256 intervals: return words hold one byte per letter, so at most 255\n"
    )


def test_certify_is_inconclusive_before_the_words_blow_up(tmp_path, capsys):
    # repetition 8 of this loop would build words of 1,037,504,259 letters;
    # its shortest return word begins every return word, so it stops at 1
    data = {
        "d": 3,
        "top": [1, 2, 3],
        "bottom": [3, 2, 1],
        "loop": list("bttttbttbb"),
        "phi": [[0], [1], [-4]],
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(data))
    assert run_cli("certify", "--instance", str(path)) == 3
    out = capsys.readouterr().out
    assert "inconclusive" in out and "prefix of every return word" in out and "rep=1 M=6 q_min=7" in out


def test_maharam_table_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for out in (out1, out2):
        assert (
            run_cli(
                "maharam",
                "--instance",
                "golden_triple",
                "--psi",
                "0.25",
                "--level",
                "2",
                "--out",
                str(out),
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["psi_1", "level", "path", "fiber", "measure"]
    assert all(len(r) == 5 for r in rows[1:])
    # normalisation: level-0 fiber-zero mass is 1 = sum of PF vector entries;
    # here check positivity and a plausible magnitude instead
    values = [float(r[4]) for r in rows[1:]]
    assert all(v > 0 for v in values)


def csv_cells(values) -> list[str]:
    """Each value as csv.writer writes it as a cell."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows([v] for v in values)
    return buffer.getvalue().split("\r\n")[:-1]


@pytest.mark.parametrize(
    "name, level, psis",
    [("golden_triple", 3, ["0.3", "-0.7"]), ("genus2_rank2", 2, ["0.4,-0.3", "-0.9,0.6"])],
)
def test_maharam_rows_match_path_enumeration_and_cylinder_measures(tmp_path, packaged, name, level, psis):
    built = packaged(name)
    diagram, m = built.diagram, built.phi.m
    fl = built.floor
    paths = sorted(("".join(diagram.labels[i] for i in p), p) for p in diagram.enumerate_paths(level))
    ids = np.array([p for _, p in paths])
    sums = fl.f[ids].sum(axis=1)  # S_k f(p), one row per path
    bound = int(np.abs(sums).max())
    fibers = sorted(
        ("(" + ",".join(map(str, a)) + ")", a) for a in product(range(-bound, bound + 1), repeat=m)
    )
    assert len(fibers) in (9, 11**2)
    cells = list(product(csv_cells(p for p, _ in paths), csv_cells(a for a, _ in fibers)))
    measures = [MaharamMeasure(diagram, built.phi, tuple(map(float, psi.split(",")))) for psi in psis]
    prefixes = [",".join(csv_cells(list(mu.psi) + [level])) for mu in measures]
    out = tmp_path / "t.csv"
    argv = ["maharam", "--instance", name, "--level", str(level), "--out", str(out)]
    assert run_cli(*argv, *(f"--psi={psi}" for psi in psis)) == 0
    with open(out, newline="") as fh:
        header, body = fh.read().split("\r\n", 1)
    assert header == ",".join([f"psi_{i + 1}" for i in range(m)] + ["level", "path", "fiber", "measure"])
    values = re.findall(r",([^,]*)\r\n", body)  # the measure cell of each row
    keys = [f"{prefix},{p},{a}" for prefix in prefixes for p, a in cells]
    assert body == "".join(f"{k},{v}\r\n" for k, v in zip(keys, values))  # and its other cells
    # every row: lambda^(a + S_k f(p)) v_t / r^k from the measure's own Perron pair
    targets = diagram.target[ids[:, -1]]
    exponents = sums[:, None, :] + np.array([a for _, a in fibers])
    # a stride prime to the fiber count and below it reaches every path and every fiber
    picked = np.arange(0, len(cells), len(fibers) - 1)
    assert set(picked // len(fibers)) == set(range(len(paths)))
    assert set(picked % len(fibers)) == set(range(len(fibers)))
    for measure, got in zip(measures, np.array(values, dtype=float).reshape(len(psis), -1)):
        pf = measure.perron  # a stack of one
        logs = exponents @ measure.psi + np.log(pf.vector[0])[targets][:, None]
        expected = np.exp(logs - level * np.log(pf.eigenvalue[0])).ravel()
        assert np.abs(got / expected - 1).max() <= 1e-12
        worst = max(
            abs(got[i] / measure.cylinder_measure(paths[i // len(fibers)][1], fibers[i % len(fibers)][1]) - 1)
            for i in picked.tolist()
        )
        assert worst <= 1e-12


def reference_csv(built, psis, level) -> str:
    """The maharam CSV of each psi, row by row: '%.15g' % exp(path log +
    fiber log) and csv.writer quoting, rows sorted by (path, fiber) string.

    The path logs come from the blocks ``path_blocks`` gives the CLI: for
    m = 2 the last bits of a log can depend on the block it is computed in.
    """
    labels, m = built.diagram.labels, built.phi.m
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([f"psi_{i + 1}" for i in range(m)] + ["level", "path", "fiber", "measure"])
    for psi in psis:
        table = build_measure_table(built.floor, psi, level)
        fibers = ["(" + ",".join(map(str, a)) + ")" for a in table.fibers]
        rows = []
        for ids in built.diagram.path_blocks(level, rank=np.argsort(np.argsort(labels))):
            masses = np.exp(table.path_logs(ids)[:, None] + table.fiber_logs)
            for p, row in zip(ids.tolist(), masses.tolist()):
                path = "".join(labels[i] for i in p)
                rows += [(path, fiber, "%.15g" % mass) for fiber, mass in zip(fibers, row)]
        writer.writerows([*psi, level, *row] for row in sorted(rows))
    return buffer.getvalue()


def first_difference(got: str, want: str):
    """None for equal texts, else the first line where they differ, from each:
    a short message where a diff of two tables would take minutes."""
    if got == want:
        return None
    lines = enumerate(zip_longest(got.splitlines(), want.splitlines()))
    return next((i, a, b) for i, (a, b) in lines if a != b)


def count_formatted(monkeypatch) -> list[int]:
    """The number of values of each call to ``cli._format_g15`` from now on."""
    sizes, format_g15 = [], cli._format_g15

    def counted(x):
        sizes.append(len(x))
        return format_g15(x)

    monkeypatch.setattr(cli, "_format_g15", counted)
    return sizes


# genus2_rank2 at level 3 is 4.5 M rows, too many for a row-by-row reference
ORACLE_CASES = [
    (name, level, psi)
    for name, given in [("golden_triple", "-0.41"), ("genus2_rank1", "0.3127"), ("genus2_rank2", "0.4,-0.3")]
    for level in (1, 2, 3)
    if (name, level) != ("genus2_rank2", 3)
    for psi in (None, given)
]


@pytest.mark.parametrize("name, level, psi", ORACLE_CASES)
def test_maharam_matches_a_row_by_row_reference(name, level, psi, packaged, capsys):
    built = packaged(name)
    # no --psi: the packaged presets, else the zero vector of ints
    psis = [tuple(map(float, psi.split(",")))] if psi else built.spec.psi or [(0,) * built.phi.m]
    assert run_cli("maharam", "--instance", name, "--level", str(level), *([f"--psi={psi}"] if psi else [])) == 0
    assert first_difference(capsys.readouterr().out, reference_csv(built, psis, level)) is None


def test_maharam_matches_the_reference_when_no_two_paths_share_a_log(golden, monkeypatch, capsys):
    def distinct_logs(self, ids):
        number = ids @ self.floor.diagram.num_edges ** np.arange(ids.shape[1])  # one per path
        return path_logs(self, ids) + 1e-6 * number

    path_logs = MeasureTable.path_logs
    monkeypatch.setattr(MeasureTable, "path_logs", distinct_logs)
    built = golden
    table = build_measure_table(built.floor, (-0.41,), 3)
    logs = np.concatenate([table.path_logs(ids) for ids in built.diagram.path_blocks(3)])
    assert np.unique(logs).size == logs.size == 577
    sizes = count_formatted(monkeypatch)
    assert run_cli("maharam", "--instance", "golden_triple", "--level", "3", "--psi=-0.41") == 0
    assert first_difference(capsys.readouterr().out, reference_csv(built, [(-0.41,)], 3)) is None
    assert sum(sizes) == 577 * 9  # every row's mass formatted on its own
    assert max(sizes) <= cli.CSV_ROWS  # the formatter's scratch arrays stay small


def test_maharam_formats_each_distinct_path_log_once_per_fiber(golden, tmp_path, monkeypatch):
    built = golden
    table = build_measure_table(built.floor, (0.3127,), 5)
    blocks = list(built.diagram.path_blocks(5))
    distinct = sum(np.unique(table.path_logs(ids)).size for ids in blocks)
    assert (len(blocks), distinct, len(table.fibers)) == (1, 33, 13)
    sizes = count_formatted(monkeypatch)
    out = tmp_path / "t.csv"
    assert run_cli("maharam", "--instance", "golden_triple", "--level", "5", "--psi=0.3127", "--out", str(out)) == 0
    assert sum(sizes) == 33 * 13  # not one value per row: 19,601 paths x 13 fibers = 254,813
    assert max(sizes) <= cli.CSV_ROWS


def test_maharam_uses_instance_psi_presets(tmp_path):
    out = tmp_path / "t.csv"
    assert (
        run_cli("maharam", "--instance", "genus2_rank1", "--level", "1", "--out", str(out))
        == 0
    )
    with open(out) as fh:
        rows = list(csv.reader(fh))
    psis = {r[0] for r in rows[1:]}
    assert psis == {"0.25", "-0.5"}


def test_continuity_csv_schema(tmp_path, capsys):
    out = tmp_path / "cont.csv"
    assert (
        run_cli(
            "continuity",
            "--instance",
            "golden_triple",
            "--level",
            "2",
            "--grid=-1:1:4",
            "--out",
            str(out),
        )
        == 0
    )
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["grid_step", "cylinder_id", "psi_1", "measure", "adjacent_delta"]
    steps = {r[0] for r in rows[1:]}
    assert steps == {"0.5"}


def test_continuity_rows_are_cylinder_major_and_sorted(rank2, tmp_path):
    # reference: every profile row through csv.writer, sorted by (cylinder, psi)
    built = rank2
    axes = tuple(tuple(lo + (hi - lo) * i / 3 for i in range(4)) for lo, hi in [(-1.1, 1.15), (-0.6, 1.35)])
    cylinders = default_cylinder_family(built.diagram, 2, level=3)
    (profile,) = continuity_profile(built.floor, cylinders, [axes])
    rows = [
        {"cylinder_id": c_idx, "psi": point, "measure": mass, "adjacent_delta": delta}
        for point, masses, deltas in zip(product(*axes), profile.masses.tolist(), profile.deltas.tolist())
        for c_idx, (mass, delta) in enumerate(zip(masses, deltas))
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["grid_step", "cylinder_id", "psi_1", "psi_2", "measure", "adjacent_delta"])
    for row in sorted(rows, key=lambda r: (r["cylinder_id"], r["psi"])):
        writer.writerow(
            [profile.step, row["cylinder_id"], *row["psi"]]
            + [f"{row['measure']:.15g}", f"{row['adjacent_delta']:.15g}"]
        )
    out = tmp_path / "cont.csv"
    grid = ["--grid=-1.1:1.15:3", "--grid=-0.6:1.35:3"]
    argv = ["continuity", "--instance", "genus2_rank2", "--level", "3", "--out", str(out)]
    assert run_cli(*argv, *grid) == 0
    assert out.read_bytes() == buffer.getvalue().encode()


def test_continuity_default_refinements(tmp_path):
    out = tmp_path / "cont.csv"
    assert (
        run_cli(
            "continuity", "--instance", "golden_triple", "--level", "2", "--out", str(out)
        )
        == 0
    )
    with open(out) as fh:
        rows = list(csv.reader(fh))
    steps = sorted({float(r[0]) for r in rows[1:]})
    assert steps == [0.25, 0.5, 1.0]


@pytest.mark.parametrize("level", ["0", "-1"])
def test_continuity_refuses_a_level_below_1(level, capsys):
    assert run_cli("continuity", "--instance", "golden_triple", "--level", level) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level must be at least 1\n"


@pytest.mark.parametrize("name, m", [("golden_triple", 1), ("genus2_rank2", 2)])
def test_continuity_json_counts_grid_points(name, m, capsys):
    # the default grids have 3, 5 and 9 points per axis; 2d cylinders each
    assert run_cli("continuity", "--instance", name, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["step"] for p in payload] == [1.0, 0.5, 0.25]
    assert [p["points"] for p in payload] == [n ** m for n in (3, 5, 9)]


def golden_verify(name):
    return json.loads((ROOT / "tests" / "data" / f"verify_{name}.json").read_text())


def verify_without_times(name, tmp_path, capsys):
    """verify's stdout and --out report for an instance at its own seed,
    every runtime taken out: a change that moves a residual or a detail (a
    speed-up that reorders float sums or rng draws) must update the golden
    file on purpose."""
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--instance", name, "--out", str(out)) == 0
    stdout = re.sub(r" \(\d+\.\d\ds\)$", "", capsys.readouterr().out, flags=re.M)
    payload = json.loads(out.read_text())
    for check in payload["checks"]:
        del check["runtime"]
    return {"stdout": stdout, "report": payload}


def test_verify_pass_and_report(tmp_path, capsys):
    found = verify_without_times("golden_triple", tmp_path, capsys)
    assert found["stdout"].count("PASS") == 11
    payload = found["report"]
    assert payload["seed"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names)) == 11
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert found == golden_verify("golden_triple")


@pytest.mark.parametrize("name", ["genus2_rank1", "genus2_rank2"])
def test_verify_matches_its_golden_file(name, tmp_path, capsys):
    assert verify_without_times(name, tmp_path, capsys) == golden_verify(name)


def test_verify_fails_first_layer_on_phi_fault(tmp_path, capsys):
    data = {
        "d": 3,
        "top": [1, 2, 3],
        "bottom": [3, 2, 1],
        "loop": list("btbtbt"),
        "phi": [[2], [-1], [0]],
    }
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--instance", str(path), "--out", str(out)) == 2
    payload = json.loads(out.read_text())
    by_name = {c["name"]: c["status"] for c in payload["checks"]}
    assert by_name["tower_oracle_equivalence"] == "pass"
    assert by_name["cocycle_identities"] == "fail"
    downstream = [
        c["status"]
        for c in payload["checks"]
        if c["name"] not in ("tower_oracle_equivalence", "cocycle_identities")
    ]
    assert set(downstream) == {"skipped"}


def test_verify_reports_a_runtime_error_as_inconclusive(monkeypatch, capsys):
    def give_up(*args, **kwargs):
        raise CertificateInconclusive("repetition cap 2^10 exceeded")

    monkeypatch.setattr(verification, "amplify_for_common_prefix", give_up)
    assert run_cli("verify", "--instance", "golden_triple") == 3
    out = capsys.readouterr().out
    assert "INCONCLUSIVE aperiodicity_certificate" in out
    assert out.count("PASS") == 10


class Stop(Exception):
    """An exception no check catches."""


def test_verify_prints_each_line_as_its_check_ends(monkeypatch, capsys):
    # criterion 9 raises past _timed: the eight lines before it are out
    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(verification, "float_orbit_frequencies", stop)
    with pytest.raises(Stop):
        run_cli("verify", "--instance", "golden_triple")
    stdout = re.sub(r" \(\d+\.\d\ds\)$", "", capsys.readouterr().out, flags=re.M)
    assert stdout.splitlines() == golden_verify("golden_triple")["stdout"].splitlines()[:8]


def test_verify_flushes_each_line():
    # stdout is a pipe, so it is block-buffered; criterion 9 ends the
    # process with no flush at exit, and the eight lines before it are out
    code = (
        "import os\n"
        "from ietskew import cli, verification\n"
        "verification.float_orbit_frequencies = lambda *args: os._exit(7)\n"
        "cli.main(['verify', '--instance', 'golden_triple'])\n"
    )
    env = child_env("PYTHONUNBUFFERED")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 7
    names = [check.check_name for check in verification.ALL_CHECKS[:8]]
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["PASS", name] for name in names]


def test_verify_requires_phi(tmp_path, capsys):
    rot = tmp_path / "rot.json"
    rot.write_text(
        json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["t", "b"]})
    )
    assert run_cli("verify", "--instance", str(rot)) == 1
    assert "no periodic-type" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ietskew.cli", "inspect", "--instance", "golden_triple"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "PF eigenvalue" in proc.stdout


def test_a_closed_stdout_ends_the_run_quietly(capsys):
    # the reader is gone before the first write, as with `inspect | head -1`;
    # stderr holds the text lines that --format json sends there, nothing else
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ietskew.cli", "inspect", "--instance", "genus2_rank2",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert run_cli("inspect", "--instance", "genus2_rank2") == 0
    assert proc.stderr == capsys.readouterr().out
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["inspect"], "the following arguments are required: --instance"),
        (["verify", "--instance", "golden_triple", "--level", "1"], "unrecognized arguments: --level 1"),
        (["inspect", "--instance", "golden_triple", "--psi", "9,9,9"], "unrecognized arguments: --psi 9,9,9"),
        pytest.param(
            ["continuity", "--instance", "golden_triple", f"--grid=0:1:1{'0' * 400}"],
            f"bad --grid spec '0:1:1{'0' * 400}'; want min:max:steps",
            id="grid-steps-past-float-range",
        ),
    ],
)
def test_a_usage_error_exits_1_with_one_line(argv, message, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


READ_OPTIONS = {
    "inspect": {"--out", "--format"},
    "eigencocycles": {"--out", "--format"},
    "certify": {"--out", "--format"},
    "maharam": {"--psi", "--level", "--out"},
    "continuity": {"--grid", "--level", "--out", "--format"},
    "verify": {"--seed", "--out", "--format"},
}


def test_each_command_takes_only_the_options_it_reads():
    values = {"--psi": "0.5", "--grid": "0:1:2", "--level": "2", "--seed": "3", "--out": "o", "--format": "json"}
    taken = {name: set() for name in READ_OPTIONS}
    for name, (flag, value) in product(READ_OPTIONS, values.items()):
        try:
            cli._parser().parse_args([name, "--instance", "golden_triple", flag, value])
        except ValueError:
            continue
        taken[name].add(flag)
    assert taken == READ_OPTIONS
    assert sum(map(len, taken.values())) == 16
    for name in READ_OPTIONS:  # csv is a choice of continuity only
        argv = [name, "--instance", "golden_triple", "--format", "csv"]
        if name == "continuity":
            assert cli._parser().parse_args(argv).format == "csv"
        else:
            with pytest.raises(ValueError):
                cli._parser().parse_args(argv)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--help")
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_a_runtime_error_outside_a_check_is_inconclusive(monkeypatch, capsys):
    def give_up(spec):
        raise RuntimeError("horizon exceeded simulating tower 2")

    monkeypatch.setattr(cli, "build_instance", give_up)
    assert run_cli("inspect", "--instance", "golden_triple") == 3
    err = capsys.readouterr().err
    assert err == "inconclusive: horizon exceeded simulating tower 2\n"


def test_running_out_of_memory_is_inconclusive(monkeypatch, capsys):
    def exhaust(built, args):
        raise MemoryError

    monkeypatch.setitem(cli.SUBCOMMANDS, "verify", cli.SUBCOMMANDS["verify"][:3] + (exhaust,))
    assert run_cli("verify", "--instance", "golden_triple") == 3
    err = capsys.readouterr().err
    assert err == "inconclusive: MemoryError()\n"


@pytest.mark.parametrize("psi", ["0,300", "0,-300"])
def test_maharam_names_a_psi_out_of_float_range(psi, capsys):
    assert run_cli("maharam", "--instance", "genus2_rank2", "--psi", psi, "--level", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "(0.0, 300.0)" if psi == "0,300" else "(0.0, -300.0)"
    assert captured.err == (
        f"error: psi {expected} is out of float range: M(exp psi) overflows a float\n"
    )


@pytest.mark.parametrize("name, psi", [("golden_triple", "300"), ("golden_triple", "-178"), ("genus2_rank2", "60,60")])
def test_maharam_refuses_a_table_whose_masses_overflow(name, psi, tmp_path, capsys):
    # M(exp psi) is finite, but the table's largest mass is not
    out = tmp_path / "t.csv"
    assert run_cli("maharam", "--instance", name, f"--psi={psi}", "--level", "3", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    bad = tuple(map(float, psi.split(",")))
    assert captured.err == f"error: psi {bad} is out of float range: a level-3 mass overflows a float\n"


def test_maharam_writes_a_table_just_inside_float_range(golden, capsys):
    # golden's largest level-3 log mass is 4 |psi|: 708 at psi = 177, 712 at 178
    table = build_measure_table(golden.floor, (177.0,), 3)
    ids = np.concatenate(list(golden.diagram.path_blocks(3)))
    assert (table.path_logs(ids)[:, None] + table.fiber_logs).max() == pytest.approx(708.0)
    assert run_cli("maharam", "--instance", "golden_triple", "--psi=177", "--level", "3") == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "inf" not in captured.out


@pytest.mark.parametrize("name, prefix", [("golden_triple", "0,1,"), ("genus2_rank2", "0,0,1,")])
def test_maharam_prints_the_default_psi_as_given(name, prefix, capsys):
    # with no --psi and no preset the table is at the zero vector of ints, printed as 0
    assert run_cli("maharam", "--instance", name, "--level", "1") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.startswith(prefix + '"') for row in rows)


GRID_WANT = "want min < max, max - min finite and steps >= 1"
NON_FINITE = {
    "psi": (["maharam", "--psi=nan"], "error: psi (nan,) is not finite\n"),
    "grid-nan": (["continuity", "--grid=nan:1:4"], f"error: bad --grid spec 'nan:1:4'; {GRID_WANT}\n"),
    "grid-inf": (["continuity", "--grid=-1:inf:4"], f"error: bad --grid spec '-1:inf:4'; {GRID_WANT}\n"),
    "grid-span": (  # both bounds finite, but max - min overflows
        ["continuity", "--grid=-1e308:1e308:4"], f"error: bad --grid spec '-1e308:1e308:4'; {GRID_WANT}\n"
    ),
    "grid-points": (  # max - min is finite, but (max - min) * steps overflows
        ["continuity", "--grid=-5e307:5e307:4"], f"error: bad --grid spec '-5e307:5e307:4'; {GRID_WANT}\n"
    ),
    "preset": (["maharam"], "error: psi (nan,) is not finite\n"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_a_non_finite_psi_is_named_as_such(case, tmp_path, capsys):
    # json.loads reads NaN, so an instance preset can hold one as well as a flag
    data = json.loads((ROOT / "src" / "ietskew" / "instances" / "golden_triple.json").read_text())
    path = tmp_path / "nan_preset.json"
    path.write_text(json.dumps(dict(data, psi=[[float("nan")]])))
    argv, err = NON_FINITE[case]
    instance = str(path) if case == "preset" else "golden_triple"
    assert run_cli(*argv, "--instance", instance) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_maharam_checks_every_psi_before_writing(tmp_path, capsys):
    # the second psi overflows: no row of the first table may be written
    argv = ["maharam", "--instance", "genus2_rank2", "--level", "2", "--psi", "0,0", "--psi", "0,300"]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: psi (0.0, 300.0) is out of float range: M(exp psi) overflows a float\n"
    out = tmp_path / "t.csv"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


BLOCK_COMMANDS = [
    ["maharam", "--instance", "golden_triple", "--level", "3", "--psi=0.3", "--psi=-0.7"],
    ["maharam", "--instance", "genus2_rank2", "--level", "1", "--psi=0.4,-0.3", "--psi=-0.9,0.6"],
    ["continuity", "--instance", "golden_triple", "--level", "2", "--grid=-1:1:4"],
    ["continuity", "--instance", "genus2_rank2", "--level", "2", "--grid=-1:1:3", "--grid=-0.5:1:4"],
]


@pytest.mark.parametrize("argv", BLOCK_COMMANDS, ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, capsys, argv):
    # blocks of 7 rows split paths, fibers, grids and tables at every offset
    whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
    assert run_cli(*argv, "--out", str(whole)) == 0
    monkeypatch.setattr(bratteli, "PATH_BLOCK", 7)
    monkeypatch.setattr(cli, "CSV_ROWS", 7)
    assert run_cli(*argv, "--out", str(split)) == 0
    assert split.read_bytes() == whole.read_bytes()
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.encode() == whole.read_bytes()


CSV_DIGESTS = json.loads((ROOT / "tests" / "data" / "csv_digests.json").read_text())


@pytest.mark.parametrize("golden", CSV_DIGESTS, ids=lambda g: "-".join(g["argv"][:5:2] + g["argv"][5:]))
def test_csv_bytes_match_their_golden_digest(tmp_path, golden):
    # written by an earlier build: a digit that changes on both sides of a
    # split-vs-whole comparison still shows here
    out = tmp_path / "out.csv"
    assert run_cli(*golden["argv"], "--out", str(out)) == 0
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (golden["bytes"], golden["sha256"])


def test_verify_reports_a_check_out_of_memory_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(verification, "float_orbit_frequencies", exhaust)
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--instance", "golden_triple", "--out", str(out)) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11 and sum(line.startswith("PASS ") for line in lines) == 10
    assert lines[8].startswith("INCONCLUSIVE psi_zero_consistency")
    check = json.loads(out.read_text())["checks"][8]
    assert check["status"] == "inconclusive"
    assert check["detail"] == "psi_zero_consistency ran out of memory: MemoryError()"


def test_verify_fails_on_an_unwritable_out_before_the_first_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_verification", lambda *args, **kwargs: pytest.fail("checks ran"))
    out = tmp_path / "missing" / "x"
    assert run_cli("verify", "--instance", "genus2_rank2", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(out) in captured.err


@pytest.mark.parametrize("command", [name for name, (_, flags, _, _) in cli.SUBCOMMANDS.items() if "--out" in flags])
def test_every_command_opens_its_out_before_building_the_instance(command, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_instance", lambda spec: pytest.fail("instance built"))
    assert run_cli(command, "--instance", "golden_triple", "--out", str(tmp_path / "missing" / "x")) == 1


@pytest.mark.parametrize(
    "error, code", [(RuntimeError("horizon exceeded"), 3), (MemoryError(), 3), (ValueError("bad"), 1)]
)
def test_a_run_that_stops_early_leaves_an_old_out_as_it_was(error, code, tmp_path, monkeypatch, capsys):
    def stop(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_verification", stop)
    new = tmp_path / "new.json"
    assert run_cli("verify", "--instance", "golden_triple", "--out", str(new)) == code
    assert not new.exists()
    out = tmp_path / "verify.json"
    old = "the previous report\n" * 1000
    out.write_text(old)
    assert run_cli("verify", "--instance", "golden_triple", "--out", str(out)) == code
    assert out.read_text() == old
    # a run that finishes replaces the old, longer file whole
    capsys.readouterr()
    assert run_cli("eigencocycles", "--instance", "golden_triple", "--out", str(out)) == 0
    assert json.loads(out.read_text())["name"] == "golden_triple"


def assert_formats_as_g15(values):
    values = np.asarray(values, dtype=float)
    assert cli._format_g15(values) == ["%.15g" % v for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_the_measure_cells_format_as_g15_for_any_float(values):
    assert_formats_as_g15(values)


def exact_ties(rng, count):
    """Doubles whose 16th significant digit is an exact 5: ties of %.15g."""
    return (rng.integers(10**14, 9 * 10**14, count) * 10 + 5).astype(float)  # below 2**53, exact


def test_the_measure_cells_format_as_g15_over_random_bit_patterns():
    # every exponent and sign, each pattern with its neighbours one ulp away
    rng = np.random.default_rng(20240615)
    bits = rng.integers(0, 2**64, 70_000, dtype=np.uint64).view(float)
    with np.errstate(invalid="ignore"):  # nextafter of a nan
        values = np.concatenate([bits, np.nextafter(bits, np.inf), np.nextafter(bits, -np.inf)])
    masses = np.exp(rng.uniform(-40.0, 5.0, 20_000))  # the range of table and profile cells
    for chunk in np.array_split(np.concatenate([values, masses, exact_ties(rng, 10_000)]), 60):
        assert_formats_as_g15(chunk)


def test_the_measure_cells_format_as_g15_just_below_each_power_of_ten():
    # where log10 may round up to the next decade: 10**e and the 48 doubles below it
    values = [10.0 ** np.arange(-249, 251)]
    for _ in range(48):
        values.append(np.nextafter(values[-1], 0.0))
    assert_formats_as_g15(np.concatenate(values))


@pytest.mark.parametrize(
    "value",
    [
        0.0, -0.0, 5e-324, -5e-324, 1e-250, 1e250,
        np.nextafter(1e-250, 0.0), np.nextafter(1e250, np.inf), 1e-251, 1e251,
        99999999999999.95, 999999999999999.5, 1e15, 1e14, 123456789012345.0,
        1000000000000005.0, 1000000000000015.0, 2.0**-22,  # exact ties, to even below and above
        9.999999999999995e-05, 9.9999999999999995e-05, 0.9999999999999996,  # a carry into the exponent
        9.99999999999997e-18, 9.99999999999997e19, 9.99999999999996e249,  # log10 rounds up to the decade
        0.0001, 0.00001, 0.000123456789012345, 1.2345678901234e-05,  # fixed / scientific
        1e100, 1e-100, 1.5e-99, 2.5e99, 123.456, 1.0, 5.0, 0.1, 1 / 3,
    ],
)
def test_the_measure_cells_format_as_g15_on_the_edges(value):
    assert_formats_as_g15([value, value * 3.0, value])


def test_importing_the_cli_builds_no_format_tables():
    # the benchmark's set-up probe imports the cli: the tables wait for a cell
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ietskew import cli\n"
        "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
        "assert cli._g15_tables.cache_info().currsize == 0\n"
        "assert not [k for k, v in vars(cli).items() if isinstance(v, np.ndarray)]\n"
        "cli._format_g15(np.array([0.5]))\n"
        "assert cli._g15_tables.cache_info().currsize == 1\n"
    )
    env = child_env()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
