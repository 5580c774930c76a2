"""Stationary ordered Bratteli diagram built from a tower system.

Vertices at every level are the tower labels 1..d.  An edge (j, l) stands
for floor l of tower j; it targets j, its source is the label under floor l
(the l-th letter of the return word w_j), and edges into the same tower are
ordered by floor.  Finite admissible paths of length k are in bijection
with the floors of the level-k towers (the dictionary works on edge-id
arrays: a height is a gather-sum of per-level offsets); the adic successor
realises the exchange map on that dictionary, the left shift realises
projection to the tower base one level down.

Paths here are always finite prefixes.  Where an infinite path would be
needed the canonical extension is by minimal edges, but the maximal
boundary case is surfaced as an error rather than silently extended: those
paths code the single forward orbit excluded from the two-sided coding,
and measure code downstream must see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .algebra import column_sums, mat_pow
from .iet import TowerSystem


PATH_BLOCK = 32_768  # most paths in one path_blocks array


class MaximalPathError(Exception):
    """Every edge of the path (at this truncation depth) is maximal."""


@dataclass(frozen=True, order=True)
class Edge:
    """Floor ``floor`` of tower ``tower``; source is the label underneath."""

    tower: int
    floor: int
    source: int

    def __str__(self):
        return f"({self.tower},{self.floor})"


@dataclass(frozen=True)
class FinitePath:
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("paths must contain at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if a.tower != b.source:
                raise ValueError(f"inadmissible junction {a} -> {b}")

    def __len__(self):
        return len(self.edges)

    def __str__(self):
        return "".join(str(e) for e in self.edges)

    @property
    def source(self) -> int:
        return self.edges[0].source

    @property
    def target(self) -> int:
        return self.edges[-1].tower

    def truncate(self, k: int) -> "FinitePath":
        return FinitePath(self.edges[:k])


@dataclass(frozen=True)
class FloorCoordinate:
    """Floor ``height`` (0-based) of the level-``level`` tower ``tower``."""

    level: int
    tower: int
    height: int


class BratteliDiagram:
    """Edge data, order structure and the path/floor dictionary."""

    def __init__(self, tower: TowerSystem):
        self.tower = tower
        self.d = tower.d
        self.words = tower.words
        self.q = tower.q
        self.matrix = tower.matrix
        self._edges = {}
        by_source: dict[int, list[Edge]] = {i: [] for i in range(1, self.d + 1)}
        for j in range(1, self.d + 1):
            for l, letter in enumerate(self.words[j - 1]):
                e = Edge(j, l, letter)
                self._edges[(j, l)] = e
                by_source[letter].append(e)
        self.edges_by_source = {i: tuple(es) for i, es in by_source.items()}
        self.num_edges = sum(self.q)
        self.first_ids = tuple(accumulate(self.q[:-1], initial=0))  # edge id of (j, 0) at j - 1
        self._sources = [e.source - 1 for e in self._edges.values()]
        if self.num_edges <= 1:
            raise ValueError("diagram needs more than one edge per level")
        if any(not es for es in self.edges_by_source.values()):
            raise ValueError("a vertex has out-degree zero")
        self._heights: dict[int, tuple[int, ...]] = {0: (1,) * self.d}
        self._offsets: dict[int, np.ndarray] = {}
        self._lifted: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._floor_sources: dict[int, tuple[np.ndarray, ...]] = {}
        # one FloorCocycle per skewing cocycle, kept by FloorCocycle.of
        self.floor_cocycles: dict = {}

    # -- basic structure ----------------------------------------------------

    def edge(self, tower: int, floor: int) -> Edge:
        try:
            return self._edges[(tower, floor)]
        except KeyError:
            raise ValueError(f"no floor {floor} in tower {tower}") from None

    def edges(self):
        return self._edges.values()

    def is_max_edge(self, e: Edge) -> bool:
        return e.floor == self.q[e.tower - 1] - 1

    def heights(self, level: int) -> tuple[int, ...]:
        """Heights of the level-``level`` towers (column sums of A^level)."""
        if level not in self._heights:
            self._heights[level] = column_sums(mat_pow(self.matrix, level))
        return self._heights[level]

    # -- order structure ------------------------------------------------------

    def is_maximal(self, p: FinitePath) -> bool:
        return all(self.is_max_edge(e) for e in p.edges)

    def adic_successor(self, p: FinitePath) -> FinitePath:
        """Smallest path above p in lexicographic order, same tail.

        The first non-maximal edge moves one floor up and everything below
        it is backfilled with minimal edges chained through the sources.
        """
        for n, e in enumerate(p.edges):
            if not self.is_max_edge(e):
                break
        else:
            raise MaximalPathError(str(p))
        new_edges = list(p.edges)
        new_edges[n] = self.edge(e.tower, e.floor + 1)
        for r in range(n - 1, -1, -1):
            new_edges[r] = self.edge(new_edges[r + 1].source, 0)
        return FinitePath(tuple(new_edges))

    def left_shift(self, p: FinitePath) -> FinitePath:
        if len(p) < 2:
            raise ValueError("cannot shift a length-1 path")
        return FinitePath(p.edges[1:])

    def right_shift(self, p: FinitePath) -> FinitePath:
        return FinitePath((self.edge(p.source, 0),) + p.edges)

    # -- the path/floor dictionary -------------------------------------------

    def offsets(self, level: int) -> np.ndarray:
        """Per edge id e = (j, l): the total height of the level-``level``
        towers under floor l of tower j, which edge ``level`` (0-based) of a
        path climbs.  Python ints where level + 1 outgrows int64."""
        if level not in self._offsets:
            sub = self.heights(level)
            off = [h for w in self.words for h in accumulate((sub[c - 1] for c in w[:-1]), initial=0)]
            wide = sum(self.heights(level + 1)) >= 2 ** 63
            self._offsets[level] = np.array(off, dtype=object if wide else np.int64)
        return self._offsets[level]

    def paths_to_floors(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """0-based tower and height of the floor each row of a (rows, k)
        edge-id array codes: the height is the gather-sum of ``offsets``."""
        heights = sum(self.offsets(m)[ids[:, m]] for m in range(ids.shape[1]))
        return self.edge_arrays[1][ids[:, -1]], heights

    def lifted_offsets(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Per 0-based tower, the total height of the level-(``level`` + 1)
        towers before it; and ``offsets(level)`` lifted by that base of each
        edge's tower, which increases over all edge ids."""
        if level not in self._lifted:
            off = self.offsets(level)
            base = np.array(tuple(accumulate(self.heights(level + 1)[:-1], initial=0)), dtype=off.dtype)
            self._lifted[level] = base, base[self.edge_arrays[1]] + off
        return self._lifted[level]

    def floors_to_paths(self, level: int, towers: np.ndarray, heights: np.ndarray) -> np.ndarray:
        """(rows, level) edge ids coding floor ``heights[i]`` of the 0-based
        tower ``towers[i]``: the greedy descent, one ``searchsorted`` per
        level over the ``lifted_offsets``."""
        source = self.edge_arrays[0]
        ids = np.empty((len(towers), level), dtype=np.intp)
        j, h = np.asarray(towers), np.asarray(heights)
        for m in range(level - 1, -1, -1):
            base, lifted = self.lifted_offsets(m)
            ids[:, m] = e = np.searchsorted(lifted, base[j] + h, side="right") - 1
            h, j = h - self.offsets(m)[e], source[e]
        return ids

    def path_from_ids(self, ids) -> FinitePath:
        edges = tuple(self._edges.values())
        return FinitePath(tuple(edges[i] for i in ids))

    def path_to_floor(self, p: FinitePath) -> FloorCoordinate:
        """Floor the path codes in its level-k tower: ``paths_to_floors`` of one row."""
        ids = [self.first_ids[e.tower - 1] + e.floor for e in p.edges]
        _, height = self.paths_to_floors(np.array([ids]))
        return FloorCoordinate(len(p), p.target, int(height[0]))

    def floor_to_path(self, level: int, tower: int, height: int) -> FinitePath:
        """Unique admissible path coding the given floor: ``floors_to_paths`` of one row."""
        if level < 1:
            raise ValueError("level must be at least 1")
        if not (1 <= tower <= self.d and 0 <= height < self.heights(level)[tower - 1]):
            raise ValueError(f"height {height} out of range for tower {tower} at level {level}")
        ids = self.floors_to_paths(level, np.array([tower - 1]), np.array([height]))
        return self.path_from_ids(ids[0].tolist())

    def floor_sources(self, level: int) -> tuple[np.ndarray, ...]:
        """Per tower, the 0-based label under each level-``level`` floor,
        bottom to top: the return words substituted ``level`` times."""
        if level not in self._floor_sources:
            blocks = [np.array([j]) for j in range(self.d)]
            for _ in range(level):
                blocks = [np.concatenate([blocks[c - 1] for c in w]) for w in self.words]
            self._floor_sources[level] = tuple(blocks)
        return self._floor_sources[level]

    # -- path constructions ----------------------------------------------------

    def min_path(self, level: int, tower: int) -> FinitePath:
        # built target-first, then reversed into level order
        edges = [self.edge(tower, 0)]
        for _ in range(level - 1):
            edges.append(self.edge(edges[-1].source, 0))
        edges.reverse()
        return FinitePath(tuple(edges))

    def max_path(self, level: int, tower: int) -> FinitePath:
        edges = [self.edge(tower, self.q[tower - 1] - 1)]
        for _ in range(level - 1):
            src = edges[-1].source
            edges.append(self.edge(src, self.q[src - 1] - 1))
        edges.reverse()
        return FinitePath(tuple(edges))

    def enumerate_paths(self, level: int):
        """All admissible paths of the given length, lazily, in ``path_blocks`` order."""
        for ids in self.path_blocks(level):
            yield from map(self.path_from_ids, ids.tolist())

    @cached_property
    def edge_arrays(self):
        """0-based source and target of each edge id (its position in
        ``edges()``), and a (d, max out-degree) table of the edge ids out of
        each vertex in id order, padded with -1."""
        ids = {e: i for i, e in enumerate(self.edges())}
        out = np.full((self.d, max(map(len, self.edges_by_source.values()))), -1)
        for v, es in self.edges_by_source.items():
            out[v - 1, :len(es)] = [ids[e] for e in es]
        source, target = np.array([(e.source - 1, e.tower - 1) for e in self.edges()]).T
        return source, target, out

    def path_blocks(self, level: int, rank=None):
        """All level-k paths as int arrays of edge ids, shape (rows, k), in
        lexicographic order of their ids from edge one, or of the ranks
        ``rank[id]`` when a rank per edge id is given, at most PATH_BLOCK
        rows per array."""
        if level < 1:
            raise ValueError("level must be at least 1")
        _, _, out = self.edge_arrays
        first = np.arange(self.num_edges)
        if rank is not None:  # each vertex's out-edges, and the first edges, by rank
            rank = np.asarray(rank)
            key = np.where(out >= 0, rank[out], rank.max() + 1)
            out = np.take_along_axis(out, np.argsort(key, axis=1), axis=1)
            first = np.argsort(rank)
        yield from self._grow(first[:, None], level, out)

    def _grow(self, prefixes, level, out):
        if prefixes.shape[1] == level:
            yield from (prefixes[s:s + PATH_BLOCK] for s in range(0, len(prefixes), PATH_BLOCK))
            return
        target = self.edge_arrays[1]
        step = max(1, PATH_BLOCK // out.shape[1])  # prefixes whose extensions fit a block
        for start in range(0, len(prefixes), step):
            chunk = prefixes[start:start + step]
            following = out[target[chunk[:, -1]]]
            rows, cols = np.nonzero(following >= 0)
            yield from self._grow(np.column_stack((chunk[rows], following[rows, cols])), level, out)

    def adic_successors(self, ids: np.ndarray) -> np.ndarray:
        """``adic_successor`` of each row of a (rows, k) edge-id array."""
        source, target, _ = self.edge_arrays
        first = np.array(self.first_ids)
        below_top = ids != (first + self.q - 1)[target[ids]]
        if not below_top.any(axis=1).all():
            raise MaximalPathError("a row of maximal edges has no successor")
        n = below_top.argmax(axis=1)  # first non-maximal edge moves one floor up
        succ = ids + (np.arange(ids.shape[1]) == n[:, None])
        for r in range(ids.shape[1] - 2, -1, -1):  # backfill below it with floor-0 edges
            succ[:, r] = np.where(r < n, first[source[succ[:, r + 1]]], succ[:, r])
        return succ

    def random_path(self, level: int, rng: random.Random) -> FinitePath:
        """Uniform-floor random path, built target-first."""
        return self.path_from_ids(self.random_path_ids(level, rng))

    def random_path_ids(self, level: int, rng: random.Random) -> list[int]:
        """Edge ids (positions in ``edges()``) of ``random_path``, by the same rng calls."""
        j = rng.randrange(1, self.d + 1)
        ids = [self.first_ids[j - 1] + rng.randrange(self.q[j - 1])]
        for _ in range(level - 1):
            s = self._sources[ids[-1]]
            ids.append(self.first_ids[s] + rng.randrange(self.q[s]))
        ids.reverse()
        return ids

    def dump_edges(self):
        """Edge list as JSON-ready dicts {j, l, s, t}."""
        return [
            {"j": e.tower, "l": e.floor, "s": e.source, "t": e.tower}
            for e in sorted(self._edges.values())
        ]

