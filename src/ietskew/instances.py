"""Instance files: loading, validation, and assembly of the working objects.

An instance file is JSON with the combinatorial data and optional extras:

    {
      "name": "genus2_rank1",
      "d": 4,
      "top": [1, 2, 3, 4],
      "bottom": [4, 3, 2, 1],
      "loop": ["b", "t", "t", ...],      // "t" = top wins, "b" = bottom wins
      "phi": [[1], [-1], [0], [0]],      // optional, d rows of m ints
      "psi": [[0.25]],                   // optional parameter presets
      "depth": 3,                        // accepted and ignored
      "seed": 0                          // optional default sample seed
    }

When "phi" is absent the integer 1-eigenvectors of A^T are computed and the
resulting basis is used; a loop with no unit eigenvalue yields a built
instance with phi = None, which callers report as "no periodic-type
skew-product on this loop".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

from .bratteli import BratteliDiagram
from .cocycles import FloorCocycle
from .iet import IetCombinatorics, LengthData, RauzyLoop, TowerSystem, compose_loop, pf_lengths
from .skew import SkewCocycle, eigencocycles, skew_from_basis


class InstanceError(ValueError):
    """Malformed or inconsistent instance file."""


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    loop: tuple[str, ...]
    phi: tuple[tuple[int, ...], ...] | None = None
    psi: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0


def packaged_names() -> list[str]:
    root = resources.files("ietskew") / "instances"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _shown(value) -> str:
    """A wrong value as an error names it: a scalar as JSON, a container by its kind."""
    if isinstance(value, (list, dict)):
        return "a list" if isinstance(value, list) else "an object"
    return json.dumps(value)


def _typed(value, kind: str, field: str, name: str):
    """``value`` when its JSON type is ``kind``; true and false are no number."""
    if type(value) not in {"a list": (list,), "an integer": (int,), "a number": (int, float)}[kind]:
        raise InstanceError(f"{field} must be {kind}, not {_shown(value)}, in instance {name!r}")
    return value


def _entries(value, kind: str, field: str, name: str) -> tuple:
    """The entries of a JSON list, each of JSON type ``kind``."""
    return tuple(_typed(x, kind, f"{field}[{i}]", name) for i, x in enumerate(_typed(value, "a list", field, name)))


def _parse(data, name: str) -> InstanceSpec:
    if not isinstance(data, dict):
        raise InstanceError(f"instance {name!r} must be a JSON object, not {_shown(data)}")
    try:
        d = _typed(data["d"], "an integer", "d", name)
        top = _entries(data["top"], "an integer", "top", name)
        bottom = _entries(data["bottom"], "an integer", "bottom", name)
        loop = tuple(_typed(data["loop"], "a list", "loop", name))
    except KeyError as exc:
        raise InstanceError(f"missing required field {exc} in instance {name!r}") from None
    if len(top) != d or len(bottom) != d:
        raise InstanceError(f"top/bottom length disagree with d={d} in {name!r}")
    if any(step not in ("t", "b") for step in loop):
        raise InstanceError(f"loop letters must be 't' or 'b' in {name!r}")
    phi = data.get("phi")
    if phi is not None:
        rows = enumerate(_entries(phi, "a list", "phi", name))
        phi = tuple(_entries(row, "an integer", f"phi[{i}]", name) for i, row in rows)
        if len(phi) != d:
            raise InstanceError(f"phi must have {d} rows in {name!r}")
        if len({len(row) for row in phi}) != 1:
            raise InstanceError(f"phi rows have inconsistent dimensions in {name!r}")
    psi = data.get("psi")
    if psi is not None:
        rows = enumerate(_entries(psi, "a list", "psi", name))
        psi = tuple(tuple(map(float, _entries(row, "a number", f"psi[{i}]", name))) for i, row in rows)
    return InstanceSpec(
        name=str(data.get("name", name)),
        top=top,
        bottom=bottom,
        loop=loop,
        phi=phi,
        psi=psi,
        seed=_typed(data.get("seed", 0), "an integer", "seed", name),
    )


def load_instance(source: str | Path) -> InstanceSpec:
    """Load an instance from a file path or a packaged instance name."""
    path = Path(source)
    if not path.exists() and not str(source).endswith(".json"):
        packaged = resources.files("ietskew") / "instances" / f"{source}.json"
        if packaged.is_file():
            return _parse(json.loads(packaged.read_text()), str(source))
        raise InstanceError(
            f"no such file and no packaged instance named {source!r} "
            f"(packaged: {', '.join(packaged_names())})"
        )
    try:
        text = path.read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file {source}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"instance file {source} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from None
    return _parse(data, path.stem)


@dataclass(frozen=True)
class BuiltInstance:
    """Everything assembled from an instance spec, ready for the pipeline."""

    spec: InstanceSpec
    loop: RauzyLoop
    tower: TowerSystem
    diagram: BratteliDiagram
    phi: SkewCocycle | None
    lengths: LengthData
    eigenrank: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def m(self) -> int:
        return self.phi.m if self.phi is not None else 0

    @cached_property
    def floor(self) -> FloorCocycle:
        """The floor cocycle of (diagram, phi), built on first use; phi must be set."""
        return FloorCocycle(self.diagram, self.phi)

    def with_phi(self, phi: SkewCocycle) -> "BuiltInstance":
        return replace(self, phi=phi)

    def with_diagram(self, diagram: BratteliDiagram) -> "BuiltInstance":
        return replace(self, diagram=diagram)


def build_instance(spec: InstanceSpec) -> BuiltInstance:
    try:
        comb = IetCombinatorics(spec.top, spec.bottom)
        loop = RauzyLoop(comb, spec.loop)
    except ValueError as exc:
        raise InstanceError(f"instance {spec.name!r}: {exc}") from None
    tower = compose_loop(loop, 1)
    diagram = BratteliDiagram(tower)
    lengths = pf_lengths(tower.matrix)
    rank, basis = eigencocycles(tower.matrix)
    if spec.phi is not None:
        try:
            phi = SkewCocycle(spec.phi)
        except ValueError as exc:
            raise InstanceError(f"instance {spec.name!r}: {exc}") from None
    elif rank > 0:
        phi = skew_from_basis(basis)
    else:
        phi = None
    return BuiltInstance(spec, loop, tower, diagram, phi, lengths, rank)
