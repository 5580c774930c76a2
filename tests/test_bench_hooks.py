"""What the benchmark under ``perfbench/`` reaches into: the names its span
recorder patches, and the cylinders its sweep check measures one psi at a
time.  Both of its files are loaded here by path."""

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

from ietskew import cli
from ietskew.instances import packaged_names
from ietskew.maharam import MaharamMeasure, default_cylinder_family, level_counting_matrix

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    owner = importlib.import_module(f"ietskew.{module}")
    if "." in attr:  # looked up in the class's own namespace, as Tracing does
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name)).get(meth)
    return getattr(owner, attr, None)


def test_every_span_target_resolves():
    spans = load_bench_module("spans")
    for module, attr, name, kind in spans.TARGETS:
        fn = resolve(module, attr)
        assert callable(fn), f"{module}.{attr}"
        assert inspect.isgeneratorfunction(fn) == (kind == "generator"), f"{module}.{attr}"
    assert set(spans.SIZE_COUNTERS) <= {name for _, _, name, _ in spans.TARGETS}


def test_every_size_counter_reads_what_its_target_returns(golden):
    # the recorder applies each counter to every value returned or yielded
    spans = load_bench_module("spans")
    targets = {name: resolve(module, attr) for module, attr, name, _ in spans.TARGETS}
    outputs = {
        "iet.compose_loop": lambda fn: [fn(golden.loop, 2)],
        "algebra.laurent_matrix_pow": lambda fn: [fn(level_counting_matrix(golden.floor), 2)],
        "bratteli.enumerate_paths": lambda fn: list(fn(golden.diagram, 2)),
    }
    assert set(outputs) == set(spans.SIZE_COUNTERS)
    for name, (counter, size) in spans.SIZE_COUNTERS.items():
        counts = [size(out) for out in outputs[name](targets[name])]
        assert counts and all(isinstance(n, int) and n > 0 for n in counts), counter


def test_tracing_records_a_command_and_restores_the_targets():
    spans = load_bench_module("spans")
    before = MaharamMeasure.__dict__["cylinder_measure"]
    rec = spans.Recorder()
    with spans.Tracing(rec):
        argv = ["continuity", "--instance", "golden_triple", "--level", "2", "--grid=-1:1:2"]
        argv += ["--format", "json"]
        assert cli.main(argv) == 0  # looked up on the module, as the benchmark calls it
    assert MaharamMeasure.__dict__["cylinder_measure"] is before
    counts = spans.aggregate(rec.arrays(), rec.names)
    assert counts["cli.main"]["calls"] == 1
    assert counts["maharam.continuity_profile"]["calls"] == 1


@pytest.mark.parametrize("name", packaged_names())
def test_cylinder_measure_takes_every_default_cylinder(packaged, name):
    workloads = load_bench_module("workloads")
    built = packaged(name)
    measure = MaharamMeasure(built.diagram, built.phi, (0.25,) * built.m)
    cylinders = default_cylinder_family(built.diagram, built.m, level=workloads.SWEEP_LEVEL)
    assert len(cylinders) == 2 * built.diagram.d
    for p, a in cylinders:
        assert len(p) == workloads.SWEEP_LEVEL
        mass = measure.cylinder_measure(p, a)
        assert math.isfinite(mass) and mass > 0
