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
from importlib import resources
from pathlib import Path

from .bratteli import BratteliDiagram
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


def _parse(data: dict, name: str) -> InstanceSpec:
    try:
        d = int(data["d"])
        top = tuple(int(x) for x in data["top"])
        bottom = tuple(int(x) for x in data["bottom"])
        loop = tuple(str(x) for x in data["loop"])
    except KeyError as exc:
        raise InstanceError(f"missing required field {exc} in instance {name!r}") from None
    if len(top) != d or len(bottom) != d:
        raise InstanceError(f"top/bottom length disagree with d={d} in {name!r}")
    if any(step not in ("t", "b") for step in loop):
        raise InstanceError(f"loop letters must be 't' or 'b' in {name!r}")
    phi = data.get("phi")
    if phi is not None:
        phi = tuple(tuple(int(x) for x in row) for row in phi)
        if len(phi) != d:
            raise InstanceError(f"phi must have {d} rows in {name!r}")
        if len({len(row) for row in phi}) != 1:
            raise InstanceError(f"phi rows have inconsistent dimensions in {name!r}")
    psi = data.get("psi")
    if psi is not None:
        psi = tuple(tuple(float(x) for x in row) for row in psi)
    return InstanceSpec(
        name=str(data.get("name", name)),
        top=top,
        bottom=bottom,
        loop=loop,
        phi=phi,
        psi=psi,
        seed=int(data.get("seed", 0)),
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
