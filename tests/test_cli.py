import csv
import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from ietskew import cli, verification
from ietskew.cli import main
from ietskew.cocycles import FloorCocycle
from ietskew.instances import build_instance, load_instance
from ietskew.maharam import MaharamMeasure, continuity_profile, default_cylinder_family


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


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


@pytest.mark.parametrize(
    "name, level, psis",
    [("golden_triple", 3, ["0.3", "-0.7"]), ("genus2_rank2", 2, ["0.4,-0.3", "-0.9,0.6"])],
)
def test_maharam_rows_match_path_enumeration_and_cylinder_measures(tmp_path, name, level, psis):
    built = build_instance(load_instance(name))
    diagram, m = built.diagram, built.phi.m
    fl = FloorCocycle.of(diagram, built.phi)
    paths = {str(p): p for p in diagram.enumerate_paths(level)}
    bound = max(abs(x) for p in paths.values() for x in fl.path_sum(p))
    fibers = {
        "(" + ",".join(map(str, a)) + ")": a
        for a in product(range(-bound, bound + 1), repeat=m)
    }
    assert len(fibers) in (9, 11**2)
    reference = sorted(product(paths, fibers))
    out = tmp_path / "t.csv"
    argv = ["maharam", "--instance", name, "--level", str(level), "--out", str(out)]
    assert run_cli(*argv, *(f"--psi={psi}" for psi in psis)) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(psis) * len(reference)
    for n, psi in enumerate(psis):
        measure = MaharamMeasure(diagram, built.phi, tuple(float(x) for x in psi.split(",")))
        block = rows[n * len(reference):(n + 1) * len(reference)]
        assert [(r[m + 1], r[m + 2]) for r in block] == reference
        # every fifth row: the fiber box has 9 or 11^2 fibers, both prime to
        # 5, so this still reaches every path and every fiber
        worst = max(
            abs(float(r[m + 3]) / measure.cylinder_measure(paths[r[m + 1]], fibers[r[m + 2]]) - 1)
            for r in block[::5]
        )
        assert worst <= 1e-12


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


def test_continuity_rows_are_cylinder_major_and_sorted(tmp_path):
    # reference: every profile row through csv.writer, sorted by (cylinder, psi)
    built = build_instance(load_instance("genus2_rank2"))
    axes = tuple(tuple(lo + (hi - lo) * i / 3 for i in range(4)) for lo, hi in [(-1.1, 1.15), (-0.6, 1.35)])
    cylinders = default_cylinder_family(built.diagram, 2, level=3)
    (profile,) = continuity_profile(built.diagram, built.phi, cylinders, [axes])
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["grid_step", "cylinder_id", "psi_1", "psi_2", "measure", "adjacent_delta"])
    for row in sorted(profile.rows, key=lambda r: (r["cylinder_id"], r["psi"])):
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


def test_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--instance", "golden_triple", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 11
    payload = json.loads(out.read_text())
    assert payload["seed"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names)) == 11
    assert all(c["status"] == "pass" for c in payload["checks"])


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
        raise RuntimeError("could not draw enough equal-length cycle pairs")

    monkeypatch.setattr(verification, "delta_closure_probe", give_up)
    assert run_cli("verify", "--instance", "golden_triple") == 3
    out = capsys.readouterr().out
    assert "INCONCLUSIVE aperiodicity_certificate" in out
    assert out.count("PASS") == 10


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
    )
    assert proc.returncode == 0
    assert "PF eigenvalue" in proc.stdout


def test_a_closed_stdout_ends_the_run_quietly():
    # the reader is gone before the first write, as with `inspect | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ietskew.cli", "inspect", "--instance", "genus2_rank2",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 0


def test_a_runtime_error_outside_a_check_is_inconclusive(monkeypatch, capsys):
    def give_up(spec):
        raise RuntimeError("horizon exceeded simulating tower 2")

    monkeypatch.setattr(cli, "build_instance", give_up)
    assert run_cli("inspect", "--instance", "golden_triple") == 3
    err = capsys.readouterr().err
    assert err == "inconclusive: horizon exceeded simulating tower 2\n"


@pytest.mark.parametrize("psi", ["0,300", "0,-300"])
def test_maharam_names_a_psi_out_of_float_range(psi, capsys):
    assert run_cli("maharam", "--instance", "genus2_rank2", "--psi", psi, "--level", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "(0.0, 300.0)" if psi == "0,300" else "(0.0, -300.0)"
    assert captured.err == (
        f"error: psi {expected} is out of float range: M(exp psi) overflows a float\n"
    )
