"""Stationary ordered Bratteli diagram built from a tower system.

Vertices at every level are the tower labels 1..d.  An edge (j, l) stands
for floor l of tower j; it targets j, its source is the label under floor l
(the l-th letter of the return word w_j), and edges into the same tower are
ordered by floor.  Finite admissible paths of length k are in bijection
with the floors of the level-k towers (the dictionary works on edge-id
arrays: a height is a gather-sum of per-level offsets); the adic successor
realises the exchange map on that dictionary, and dropping a path's first
edge projects it to the tower base one level down.  Every edge datum is an
array indexed by edge id; a single path is the tuple of its edge ids, a row
of ``path_blocks``.

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


def _draw_chain(bits, rows, row: int, count: int) -> list[int]:
    """``count`` draws by ``bits`` = rng.getrandbits down a table of rows
    (n, width, offset, follow).  A draw r from range(n) takes ``width`` =
    n.bit_length() bits, drawn again until below n: this is how
    random.Random.randrange(n) draws (CPython 3.10+), so the values and the
    rng state after them are its own.  It records offset + r and moves on
    to row follow[r]."""
    out = []
    for _ in range(count):
        n, width, offset, follow = rows[row]
        r = bits(width)
        while r >= n:
            r = bits(width)
        out.append(offset + r)
        row = follow[r]
    return out


class MaximalPathError(Exception):
    """Every edge of the path (at this truncation depth) is maximal."""


@dataclass(frozen=True)
class FloorCoordinate:
    """Floor ``height`` (0-based) of the level-``level`` tower ``tower``."""

    level: int
    tower: int
    height: int


class BratteliDiagram:
    """Edge arrays, order structure and the path/floor dictionary.

    Edge id e numbers the edges (j, l) tower by tower, floors in order, as
    the letters of the return words; every per-edge array is indexed by it.
    """

    def __init__(self, tower: TowerSystem):
        self.tower = tower
        self.d = tower.d
        self.words = tower.words
        self.q = tower.q
        self.matrix = tower.matrix
        self.num_edges = sum(self.q)
        if self.num_edges <= 1:
            raise ValueError("diagram needs more than one edge per level")
        self.first_ids = tuple(accumulate(self.q[:-1], initial=0))  # edge id of (j, 0) at j - 1
        self.top_ids = tuple(first + n - 1 for first, n in zip(self.first_ids, self.q))
        self.tops = frozenset(self.top_ids)
        # 0-based source and target, and the floor, of each edge id
        self.source = np.array([letter - 1 for w in self.words for letter in w])
        self.target = np.repeat(np.arange(self.d), self.q)
        self.floor = np.arange(self.num_edges) - np.array(self.first_ids)[self.target]
        self.is_top = np.zeros(self.num_edges, dtype=bool)
        self.is_top[list(self.top_ids)] = True
        # (d, most out-edges) table of the edge ids out of each vertex, in id order, padded with -1
        degree = np.bincount(self.source, minlength=self.d)
        if not degree.all():
            raise ValueError("a vertex has out-degree zero")
        vertex, start = np.repeat(np.arange(self.d), degree), np.cumsum(degree) - degree
        self.out = np.full((self.d, degree.max()), -1)
        by_source = np.argsort(self.source, kind="stable")
        self.out[vertex, np.arange(self.num_edges) - start[vertex]] = by_source
        self._heights: dict[int, tuple[int, ...]] = {0: (1,) * self.d}
        self._offsets: dict[int, np.ndarray] = {}
        self._lifted: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._floor_sources: dict[int, tuple[np.ndarray, ...]] = {}

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The string (j,l) of each edge id."""
        return tuple(f"({j},{l})" for j, n in enumerate(self.q, 1) for l in range(n))

    def heights(self, level: int) -> tuple[int, ...]:
        """Heights of the level-``level`` towers (column sums of A^level)."""
        if level not in self._heights:
            self._heights[level] = column_sums(mat_pow(self.matrix, level))
        return self._heights[level]

    # -- order structure ------------------------------------------------------

    def is_maximal(self, ids) -> bool:
        """Whether every edge id of the sequence is the top floor of its tower."""
        return self.tops.issuperset(ids)

    def adic_successor(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """Smallest path above p in lexicographic order, same tail: ``adic_successors`` of one row."""
        return tuple(self.adic_successors(np.array([p]))[0].tolist())

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
        return self.target[ids[:, -1]], heights

    def lifted_offsets(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Per 0-based tower, the total height of the level-(``level`` + 1)
        towers before it; and ``offsets(level)`` lifted by that base of each
        edge's tower, which increases over all edge ids."""
        if level not in self._lifted:
            off = self.offsets(level)
            base = np.array(tuple(accumulate(self.heights(level + 1)[:-1], initial=0)), dtype=off.dtype)
            self._lifted[level] = base, base[self.target] + off
        return self._lifted[level]

    def floors_to_paths(self, level: int, towers: np.ndarray, heights: np.ndarray) -> np.ndarray:
        """(rows, level) edge ids coding floor ``heights[i]`` of the 0-based
        tower ``towers[i]``: the greedy descent, one ``searchsorted`` per
        level over the ``lifted_offsets``."""
        ids = np.empty((len(towers), level), dtype=np.intp)
        j, h = np.asarray(towers), np.asarray(heights)
        for m in range(level - 1, -1, -1):
            base, lifted = self.lifted_offsets(m)
            ids[:, m] = e = np.searchsorted(lifted, base[j] + h, side="right") - 1
            h, j = h - self.offsets(m)[e], self.source[e]
        return ids

    def path_to_floor(self, p: tuple[int, ...]) -> FloorCoordinate:
        """Floor the path codes in its level-k tower: ``paths_to_floors`` of one row."""
        tower, height = self.paths_to_floors(np.array([p]))
        return FloorCoordinate(len(p), int(tower[0]) + 1, int(height[0]))

    def floor_to_path(self, level: int, tower: int, height: int) -> tuple[int, ...]:
        """Unique admissible path coding the given floor: ``floors_to_paths`` of one row."""
        if level < 1:
            raise ValueError("level must be at least 1")
        if not (1 <= tower <= self.d and 0 <= height < self.heights(level)[tower - 1]):
            raise ValueError(f"height {height} out of range for tower {tower} at level {level}")
        ids = self.floors_to_paths(level, np.array([tower - 1]), np.array([height]))
        return tuple(ids[0].tolist())

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

    def min_path(self, level: int, tower: int) -> tuple[int, ...]:
        """The path of floor-0 edges into ``tower``."""
        return self._walk_down(level, tower, self.first_ids)

    def max_path(self, level: int, tower: int) -> tuple[int, ...]:
        """The path of top-floor edges into ``tower``."""
        return self._walk_down(level, tower, self.top_ids)

    def _walk_down(self, level: int, tower: int, edge_of) -> tuple[int, ...]:
        """From ``tower`` down, each time the edge ``edge_of[tower]`` of the
        tower under the last edge; then reversed into level order."""
        if level < 1:
            raise ValueError("level must be at least 1")
        ids = [edge_of[tower - 1]]
        for _ in range(level - 1):
            ids.append(edge_of[self.source[ids[-1]]])
        return tuple(reversed(ids))

    def enumerate_paths(self, level: int):
        """All level-k paths as edge-id tuples, lazily, in ``path_blocks`` order."""
        for ids in self.path_blocks(level):
            yield from map(tuple, ids.tolist())

    def path_blocks(self, level: int, rank=None):
        """All level-k paths as int arrays of edge ids, shape (rows, k), in
        lexicographic order of their ids from edge one, or of the ranks
        ``rank[id]`` when a rank per edge id is given, at most PATH_BLOCK
        rows per array.  Each level past the first extends the blocks of the
        one below by ``extensions``, with the out-edge table in rank order."""
        if level < 1:
            raise ValueError("level must be at least 1")
        out, first = self.out, np.arange(self.num_edges)
        if rank is not None:  # each vertex's out-edges, and the first edges, by rank
            rank = np.asarray(rank)
            key = np.where(out >= 0, rank[out], rank.max() + 1)
            out = np.take_along_axis(out, np.argsort(key, axis=1), axis=1)
            first = np.argsort(rank)
        blocks = (first[s:s + PATH_BLOCK, None] for s in range(0, len(first), PATH_BLOCK))
        for _ in range(level - 1):  # each block of the level below, extended by one edge
            blocks = (np.column_stack((ids[rows], edges))
                      for ids in blocks for rows, edges in self.extensions(self.target[ids[:, -1]], out))
        yield from blocks

    def extensions(self, ends: np.ndarray, out: np.ndarray):
        """Every one-edge extension of paths ending at the 0-based vertices
        ``ends``, as (row, edge id) arrays: rows in order, each row's edges in
        the order of ``out``, a (d, most out-edges) table such as ``self.out``,
        padded with -1 at the end of each row.  At most PATH_BLOCK pairs per
        yield, and no array holds more, unless a single vertex has more
        out-edges."""
        degree = (out >= 0).sum(axis=1)
        flat, first = out[out >= 0], np.cumsum(degree) - degree  # each vertex's out-edges, end to end
        step = max(1, PATH_BLOCK // out.shape[1])  # rows whose extensions fit a block
        for start in range(0, len(ends), step):
            chunk = ends[start:start + step]
            n = degree[chunk]
            rows = np.repeat(np.arange(start, start + len(chunk)), n)
            edges = flat[np.arange(len(rows)) + np.repeat(first[chunk] - (np.cumsum(n) - n), n)]
            for s in range(0, len(rows), PATH_BLOCK):
                yield rows[s:s + PATH_BLOCK], edges[s:s + PATH_BLOCK]

    def adic_successors(self, ids: np.ndarray) -> np.ndarray:
        """``adic_successor`` of each row of a (rows, k) edge-id array."""
        first = np.array(self.first_ids)
        below_top = ~self.is_top[ids]
        if not below_top.any(axis=1).all():
            raise MaximalPathError("a row of maximal edges has no successor")
        n = below_top.argmax(axis=1)  # first non-maximal edge moves one floor up
        succ = ids + (np.arange(ids.shape[1]) == n[:, None])
        for r in range(ids.shape[1] - 2, -1, -1):  # backfill below it with floor-0 edges
            succ[:, r] = np.where(r < n, first[self.source[succ[:, r + 1]]], succ[:, r])
        return succ

    @cached_property
    def draw_rows(self) -> tuple:
        """The draw table: per 0-based tower j, (q_j, its bit width, the edge
        id of floor 0, the 0-based label under each floor); then a last row
        that draws the tower.  Two loops read it: ``_draw_chain``, for
        ``random_path_ids``, and ``maharam.step_samples``, which walks it inline
        into one flat list, a top being the draw q_j - 1: a call per sample was
        most of its time on criterion 8's 60 k samples per ``verify``."""
        rows = [(n, n.bit_length(), first, tuple(c - 1 for c in w))
                for n, first, w in zip(self.q, self.first_ids, self.words)]
        return (*rows, (self.d, self.d.bit_length(), 0, tuple(range(self.d))))

    def random_path_ids(self, level: int, rng: random.Random) -> list[int]:
        """Uniform-floor random path, built target-first: a tower, then one of
        its floors, then a floor of the tower under that floor, and so on
        down, drawn by ``_draw_chain`` on rng's bits; the tower is not an edge."""
        return _draw_chain(rng.getrandbits, self.draw_rows, self.d, level + 1)[:0:-1]
