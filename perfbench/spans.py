"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``ietskew`` package from the
outside: nothing under ``src/`` knows it is being traced.  Each call to a
wrapped function opens a span (name, start, end, parent) in flat arrays, so
a few million spans cost about 25 bytes each.  Spans stay in memory until
the run ends and are then aggregated into per-layer metrics and written to
disk.

A layer is a module of ``src/ietskew``.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "instances",
    "skew",
    "iet",
    "bratteli",
    "cocycles",
    "algebra",
    "maharam",
    "verification",
    "cli",
)

# (module, attribute, span name, kind).  An attribute "Cls.meth" is patched
# on the class.  Kind "call" counts calls, "init" counts constructions and
# "generator" makes one span per resume and counts the items yielded.  Hot
# helpers such as vec_add (about 2 M calls per rank-2 verify) are left out:
# a span per call would cost more than the work it measures.
TARGETS = (
    ("instances", "load_instance", "instances.load_instance", "call"),
    ("instances", "build_instance", "instances.build_instance", "call"),
    ("skew", "eigencocycles", "skew.eigencocycles", "call"),
    ("iet", "compose_loop", "iet.compose_loop", "call"),
    ("iet", "simulate_return_times", "iet.simulate_return_times", "call"),
    ("iet", "float_orbit_frequencies", "iet.float_orbit_frequencies", "call"),
    ("bratteli", "BratteliDiagram.enumerate_paths", "bratteli.enumerate_paths", "generator"),
    ("bratteli", "BratteliDiagram.path_to_floor", "bratteli.path_to_floor", "call"),
    ("bratteli", "BratteliDiagram.floor_to_path", "bratteli.floor_to_path", "call"),
    ("bratteli", "BratteliDiagram.adic_successor", "bratteli.adic_successor", "call"),
    ("cocycles", "FloorCocycle.__init__", "cocycles.FloorCocycle", "init"),
    ("cocycles", "FloorCocycle.path_sum", "cocycles.path_sum", "call"),
    ("cocycles", "tail_orbit_witness", "cocycles.tail_orbit_witness", "call"),
    ("cocycles", "amplify_for_common_prefix", "cocycles.amplify_for_common_prefix", "call"),
    ("algebra", "laurent_matrix_pow", "algebra.laurent_matrix_pow", "call"),
    ("maharam", "MaharamMeasure.__init__", "maharam.MaharamMeasure", "init"),
    ("maharam", "MaharamMeasure.cylinder_measure", "maharam.cylinder_measure", "call"),
    ("maharam", "level_counting_matrix", "maharam.level_counting_matrix", "call"),
    ("maharam", "perron", "maharam.perron", "call"),
    ("maharam", "continuity_profile", "maharam.continuity_profile", "call"),
    ("maharam", "build_measure_table", "maharam.build_measure_table", "call"),
    ("maharam", "invariance_step_check", "maharam.invariance_step_check", "call"),
    ("cli", "main", "cli.main", "call"),
)

def _letters(tower) -> int:
    return sum(tower.q)


def _laurent_terms(mat) -> int:
    return sum(len(p.terms) for row in mat.entries for p in row)


# span name -> (counter, size of each value returned or yielded)
SIZE_COUNTERS = {
    "iet.compose_loop": ("iet.compose_loop.letters", _letters),
    "algebra.laurent_matrix_pow": ("algebra.laurent_terms", _laurent_terms),
    "bratteli.enumerate_paths": ("bratteli.paths", lambda _path: 1),
}


def metric_names(name: str, kind: str) -> list[str]:
    """Per-layer metrics of one target: its time and a count of its work."""
    count = {"call": f"{name}.calls", "init": f"{name}.builds"}.get(kind)
    out = [f"{name}.s"] + ([count] if count else [])
    if name in SIZE_COUNTERS:
        out.append(SIZE_COUNTERS[name][0])
    return out


class Recorder:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an ancestor span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        depth = self._open_by_name.get(nid, 0)
        self._open_by_name[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if depth else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self.name_id[idx]] -= 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, first: int = 0, last: int | None = None) -> dict:
        """Spans [first, last) as numpy arrays; parents re-based to the slice."""
        sl = slice(first, last)
        parent = np.frombuffer(self.parent, dtype=np.int32)[sl].astype(np.int64)
        parent[parent >= 0] -= first
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[sl].copy(),
            "parent": parent,
            "nested": np.frombuffer(self.nested, dtype=np.int8)[sl].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[sl].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[sl].copy(),
        }


def _wrap_call(rec: Recorder, name: str, fn):
    nid = rec.name_index(name)
    size = SIZE_COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if size is not None:
            rec.count(size[0], size[1](out))
        return out

    return traced


def _wrap_generator(rec: Recorder, name: str, fn):
    """Each resume of the generator is one span, so the span time is the
    time spent inside the generator and not in its consumer."""
    nid = rec.name_index(name)
    counter, size = SIZE_COUNTERS[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            idx = rec.open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            rec.count(counter, size(item))
            yield item

    return traced


class Tracing:
    """Context manager that installs the wrappers and restores the originals.

    A function is patched at every module attribute of the package that is
    bound to it (``from .maharam import perron`` makes such a copy), and a
    method on its class.  The verification checks are patched where
    ``run_verification`` finds them, in ``verification.ALL_CHECKS``; the
    nested re-runs that ``fault_injection`` makes on corrupted instances
    therefore count as fault_injection time, as in ``CheckResult.runtime``.
    """

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple] = []

    def __enter__(self):
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "ietskew" or key.startswith("ietskew.")
        ]
        for module, attr, name, kind in TARGETS:
            owner = sys.modules[f"ietskew.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                if kind == "generator":
                    wrapped = _wrap_generator(self.rec, name, fn)
                else:
                    wrapped = _wrap_call(self.rec, name, fn)
                self._set(cls, meth, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = _wrap_call(self.rec, name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)
        checks = sys.modules["ietskew.verification"].ALL_CHECKS
        for i, fn in enumerate(checks):
            self._undo.append((checks, i, fn))
            checks[i] = _wrap_call(self.rec, f"verification.{fn.check_name}", fn)
        return self.rec

    def _set(self, obj, key, value):
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def __exit__(self, *exc):
        for obj, key, original in reversed(self._undo):
            if isinstance(obj, list):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._undo.clear()
        return False


def aggregate(spans: dict, names: list[str]) -> dict[str, dict[str, float]]:
    """Per-name totals of one slice of spans.

    Returns ``{name: {"calls", "s", "self_s"}}`` where ``s`` is the summed
    duration of the outermost spans of that name (a span nested in another
    of the same name is not counted twice) and ``self_s`` the summed self
    time of all of them.
    """
    n_names = len(names)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    nid = spans["name_id"]
    outer = spans["nested"] == 0
    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid[outer], weights=dur[outer], minlength=n_names)
    self_total = np.bincount(nid, weights=self_time, minlength=n_names)
    return {
        names[i]: {
            "calls": int(calls[i]),
            "s": float(total[i]),
            "self_s": float(self_total[i]),
        }
        for i in range(n_names)
    }


def write_spans(path, rec: Recorder) -> None:
    """All recorded spans as one .npz file, with the name table."""
    arrays = rec.arrays()
    np.savez(path, names=np.array(rec.names), **arrays)
