import json
from importlib import resources

import pytest

from ietskew.cli import main
from ietskew.instances import (
    InstanceError,
    _parse,
    build_instance,
    load_instance,
    packaged_names,
)


def test_packaged_names():
    assert packaged_names() == ["genus2_rank1", "genus2_rank2", "golden_triple"]


def test_load_and_build_packaged():
    for name in packaged_names():
        built = build_instance(load_instance(name))
        assert built.phi is not None
        assert built.tower.d == len(built.spec.top)
        assert built.m == built.eigenrank or built.spec.phi is not None


def test_explicit_phi_is_used():
    built = build_instance(load_instance("genus2_rank1"))
    assert built.spec.phi == ((1,), (-1,), (0,), (0,))
    assert built.phi.values == built.spec.phi


def test_unknown_instance():
    with pytest.raises(InstanceError, match="packaged"):
        load_instance("nonexistent_instance")


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 3,\n  "top": [1, 2')
    with pytest.raises(InstanceError, match="line"):
        load_instance(path)


def test_missing_field(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1]}))
    with pytest.raises(InstanceError, match="loop"):
        load_instance(path)


def test_bad_loop_letters(tmp_path):
    path = tmp_path / "letters.json"
    path.write_text(
        json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["x"]})
    )
    with pytest.raises(InstanceError, match="letters"):
        load_instance(path)


def test_phi_shape_validation(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "top": [1, 2],
                "bottom": [2, 1],
                "loop": ["t", "b"],
                "phi": [[1]],
            }
        )
    )
    with pytest.raises(InstanceError, match="rows"):
        load_instance(path)


def test_unsuitable_loop_rejected(tmp_path):
    # a single top move loops on the d=2 vertex but its matrix is never positive
    path = tmp_path / "unsuitable.json"
    path.write_text(
        json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["t"]})
    )
    with pytest.raises(InstanceError, match="not positive"):
        build_instance(load_instance(path))


def test_loop_without_unit_eigenvalue_gives_no_phi(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text(
        json.dumps({"d": 2, "top": [1, 2], "bottom": [2, 1], "loop": ["t", "b"]})
    )
    built = build_instance(load_instance(path))
    assert built.eigenrank == 0
    assert built.phi is None


def test_defaults():
    spec = load_instance("golden_triple")
    assert spec.seed == 0
    # "depth" is accepted and ignored
    data = json.loads((resources.files("ietskew") / "instances" / "golden_triple.json").read_text())
    assert data["depth"] == 3
    without = {key: value for key, value in data.items() if key != "depth"}
    assert _parse(dict(data, depth=7), "golden_triple") == _parse(without, "golden_triple") == spec
    spec2 = load_instance("genus2_rank1")
    assert spec2.psi == ((0.25,), (-0.5,))


GOLDEN = {"d": 3, "top": [1, 2, 3], "bottom": [3, 2, 1], "loop": list("btbtbt")}


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "instance 'bad' must be a JSON object, not a list"),
        (None, "instance 'bad' must be a JSON object, not null"),
        (dict(GOLDEN, d=True), "d must be an integer, not true"),
        (dict(GOLDEN, top=5), "top must be a list, not 5"),
        (dict(GOLDEN, top=[1.9, 2, 3]), "top[0] must be an integer, not 1.9"),
        (dict(GOLDEN, bottom=[3, "2", 1]), 'bottom[1] must be an integer, not "2"'),
        (dict(GOLDEN, loop=None), "loop must be a list, not null"),
        (dict(GOLDEN, phi=[[1.9], [-1.2], [0.3]]), "phi[0][0] must be an integer, not 1.9"),
        (dict(GOLDEN, phi=[1, 2, 3]), "phi[0] must be a list, not 1"),
        (dict(GOLDEN, psi=[0.5]), "psi[0] must be a list, not 0.5"),
        (dict(GOLDEN, psi=[[False]]), "psi[0][0] must be a number, not false"),
        (dict(GOLDEN, seed=None), "seed must be an integer, not null"),
        (dict(GOLDEN, seed=0.0), "seed must be an integer, not 0.0"),
    ],
)
def test_a_wrong_json_type_is_one_error_line_naming_the_field(tmp_path, capsys, data, message):
    # no int() truncation and no traceback: the field and its value are named
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceError) as caught:
        load_instance(path)
    assert str(caught.value).startswith(message)
    capsys.readouterr()
    assert main(["certify", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {caught.value}\n"

