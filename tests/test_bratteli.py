import random

import numpy as np
import pytest

from ietskew import bratteli
from ietskew.bratteli import BratteliDiagram, FinitePath, MaximalPathError
from ietskew.cocycles import FloorCocycle
from ietskew.iet import TowerSystem, compose_loop


@pytest.fixture(scope="module")
def odometer():
    # one vertex, two ordered edges per level: binary odometer
    return BratteliDiagram(TowerSystem(1, ((2,),), ((1, 1),), (2,)))


def bits_to_path(diagram, bits):
    return FinitePath(tuple(diagram.edge(1, b) for b in bits))


def path_to_bits(p):
    return tuple(e.floor for e in p.edges)


def test_odometer_addition(odometer):
    # 3 = (1,1,0) steps to 4 = (0,0,1)
    p = bits_to_path(odometer, (1, 1, 0))
    succ = odometer.adic_successor(p)
    assert path_to_bits(succ) == (0, 0, 1)
    assert odometer.path_to_floor(succ).height == 4
    assert odometer.floor_to_path(3, 1, 3) == p
    # full 3-bit cycle enumerates 0..7 in binary order
    value = lambda bits: sum(b << i for i, b in enumerate(bits))
    p = bits_to_path(odometer, (0, 0, 0))
    seen = [value(path_to_bits(p))]
    for _ in range(7):
        p = odometer.adic_successor(p)
        seen.append(value(path_to_bits(p)))
    assert seen == list(range(8))
    with pytest.raises(MaximalPathError):
        odometer.adic_successor(bits_to_path(odometer, (1, 1, 1)))


def test_identity_diagram_is_self_loops():
    tower = TowerSystem(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1,), (2,), (3,)), (1, 1, 1))
    diagram = BratteliDiagram(tower)
    assert diagram.num_edges == 3
    for e in diagram.edges():
        assert e.source == e.tower and e.floor == 0


def test_edge_count_and_degrees(built):
    diagram = built.diagram
    assert diagram.num_edges == sum(built.tower.q)
    assert diagram.num_edges > 1
    for i in range(1, diagram.d + 1):
        assert diagram.edges_by_source[i]  # out-degree >= 1
        assert any(e.tower == i for e in diagram.edges())  # in-degree >= 1


def test_min_max_path_counts(built):
    diagram = built.diagram
    for level in (1, 2, 3):
        paths = list(diagram.enumerate_paths(level))
        maximal = [p for p in paths if diagram.is_maximal(p)]
        minimal = [p for p in paths if all(e.floor == 0 for e in p.edges)]
        assert len(maximal) == diagram.d
        assert len(minimal) == diagram.d
        assert sorted(str(p) for p in maximal) == sorted(
            str(diagram.max_path(level, j)) for j in range(1, diagram.d + 1)
        )
        assert sorted(str(p) for p in minimal) == sorted(
            str(diagram.min_path(level, j)) for j in range(1, diagram.d + 1)
        )


def test_path_floor_bijection_exhaustive(built):
    diagram = built.diagram
    for level in (1, 2, 3):
        heights = diagram.heights(level)
        seen = set()
        count = 0
        for p in diagram.enumerate_paths(level):
            fc = diagram.path_to_floor(p)
            assert fc.level == level and fc.tower == p.target
            assert 0 <= fc.height < heights[fc.tower - 1]
            key = (fc.tower, fc.height)
            assert key not in seen
            seen.add(key)
            count += 1
            assert diagram.floor_to_path(level, fc.tower, fc.height) == p
        assert count == sum(heights)  # every floor hit exactly once


def test_floor_formula_basics(built):
    diagram = built.diagram
    # length-1 path (j, l) sits at height l
    for j in range(1, diagram.d + 1):
        for l in range(diagram.q[j - 1]):
            p = FinitePath((diagram.edge(j, l),))
            assert diagram.path_to_floor(p).height == l
    # all-minimal path of any length sits at the base
    for level in (1, 2, 3):
        for j in range(1, diagram.d + 1):
            assert diagram.path_to_floor(diagram.min_path(level, j)).height == 0
            top = diagram.path_to_floor(diagram.max_path(level, j))
            assert top.height == diagram.heights(level)[j - 1] - 1


def test_floor_to_path_range_check(built):
    diagram = built.diagram
    for tower, height in ((1, diagram.heights(2)[0]), (1, -1), (0, 0), (diagram.d + 1, 0)):
        with pytest.raises(ValueError):
            diagram.floor_to_path(2, tower, height)
    with pytest.raises(ValueError):
        diagram.floor_to_path(0, 1, 0)


def test_coding_identity_floor_increments(built):
    diagram = built.diagram
    for level in (1, 2, 3):
        for p in diagram.enumerate_paths(level):
            if diagram.is_maximal(p):
                continue
            succ = diagram.adic_successor(p)
            a = diagram.path_to_floor(p)
            b = diagram.path_to_floor(succ)
            assert b.tower == a.tower
            assert b.height == a.height + 1


def test_successor_minimality_same_tail(built):
    # paths sharing their final edge, sorted lexicographically (last edge
    # most significant): the adic successor is the immediate next element,
    # so nothing lies strictly between a path and its successor
    diagram = built.diagram
    for level in (1, 2):
        by_tail = {}
        for p in diagram.enumerate_paths(level):
            by_tail.setdefault(p.edges[-1], []).append(p)
        for paths in by_tail.values():
            paths.sort(key=lambda p: tuple(e.floor for e in reversed(p.edges)))
            for a, b in zip(paths, paths[1:]):
                assert diagram.adic_successor(a) == b


def test_shifts(built):
    diagram = built.diagram
    rng = random.Random(4)
    for _ in range(50):
        p = diagram.random_path(3, rng)
        shifted = diagram.left_shift(p)
        assert shifted.edges == p.edges[1:]
        back = diagram.right_shift(shifted)
        assert diagram.left_shift(back) == shifted
        assert back.edges[0].floor == 0
        assert back.edges[0].tower == shifted.source
    with pytest.raises(ValueError):
        diagram.left_shift(FinitePath((diagram.edge(1, 0),)))


def test_right_shift_floor_semantics(built):
    # prepending the minimal edge keeps the floor at the same base one level
    # deeper: height of iota(p) equals height of p measured one level up
    diagram = built.diagram
    for p in diagram.enumerate_paths(2):
        ip = diagram.right_shift(p)
        fc = diagram.path_to_floor(ip)
        assert fc.level == 3
        # minimal first edge contributes nothing below level 1
        inner = diagram.path_to_floor(p)
        # heights measured against level-1 blocks: climbing contributions of
        # p's edges shift up one level
        expected = 0
        for m in range(len(p), 0, -1):
            e = p.edges[m - 1]
            sub = diagram.heights(m)
            word = diagram.words[e.tower - 1]
            expected += sum(sub[word[u] - 1] for u in range(e.floor))
        assert fc.height == expected
        assert inner.tower == fc.tower


def test_path_rendering(built):
    p = built.diagram.min_path(2, 1)
    s = str(p)
    assert s.count("(") == 2 and s.endswith("(1,0)")


def test_dump_edges_schema(built):
    dump = built.diagram.dump_edges()
    assert len(dump) == built.diagram.num_edges
    for row in dump:
        assert set(row) == {"j", "l", "s", "t"}
        assert row["t"] == row["j"]
        assert built.diagram.words[row["j"] - 1][row["l"]] == row["s"]


def extend_edge_by_edge(diagram, level):
    """Every level-k path: the edges in order, each path extended by the
    edges out of its target in order."""
    paths = [(e,) for e in sorted(diagram.edges())]
    for _ in range(level - 1):
        paths = [p + (e,) for p in paths for e in diagram.edges_by_source[p[-1].tower]]
    return [FinitePath(p) for p in paths]


def test_path_blocks_split_into_enumeration_order(built, monkeypatch):
    # blocks of at most 7 rows force splits inside every level and inside
    # the extensions of a single prefix (out-degrees reach 29)
    monkeypatch.setattr(bratteli, "PATH_BLOCK", 7)
    diagram = built.diagram
    fl = FloorCocycle.of(diagram, built.phi)
    edge_id = {e: i for i, e in enumerate(diagram.edges())}
    for level in (1, 2, 3):
        blocks = list(diagram.path_blocks(level))
        assert all(1 <= len(b) <= 7 and b.shape[1] == level for b in blocks)
        ids = np.concatenate(blocks)
        paths = extend_edge_by_edge(diagram, level)
        assert list(diagram.enumerate_paths(level)) == paths
        assert len(ids) == len(paths) == sum(diagram.heights(level))
        assert ids.tolist() == [[edge_id[e] for e in p.edges] for p in paths]
        sums = fl.f[ids].sum(axis=1).tolist()
        assert [tuple(s) for s in sums] == [fl.path_sum(p) for p in paths]


def test_path_blocks_by_rank_come_in_rank_order(built, monkeypatch):
    # a rank per edge id reorders the enumeration, blocks of 7 rows or not
    diagram = built.diagram
    rank = np.random.default_rng(5).permutation(diagram.num_edges)
    for block in (bratteli.PATH_BLOCK, 7):
        monkeypatch.setattr(bratteli, "PATH_BLOCK", block)
        for level in (1, 2, 3):
            ids = np.concatenate(list(diagram.path_blocks(level)))
            ranked = np.concatenate(list(diagram.path_blocks(level, rank=rank)))
            assert ranked.tolist() == sorted(ids.tolist(), key=lambda row: rank[row].tolist())


def test_path_blocks_reject_level_zero(odometer):
    with pytest.raises(ValueError):
        next(odometer.path_blocks(0))


def test_adic_successors_match_adic_successor_row_by_row(built):
    diagram = built.diagram
    edges = tuple(diagram.edges())
    ids = np.concatenate(list(diagram.path_blocks(3)))  # every level-3 path
    rng = random.Random(8)
    sampled = np.array([diagram.random_path_ids(5, rng) for _ in range(2000)])
    for rows in (ids, sampled):
        paths = [FinitePath(tuple(edges[i] for i in row)) for row in rows.tolist()]
        keep = [not diagram.is_maximal(p) for p in paths]
        assert sum(keep) >= len(rows) - diagram.d
        succ = diagram.adic_successors(rows[keep])
        expected = [diagram.adic_successor(p) for p, k in zip(paths, keep) if k]
        assert [tuple(edges[i] for i in row) for row in succ.tolist()] == [p.edges for p in expected]


def test_adic_successors_refuse_a_maximal_row(built):
    diagram = built.diagram
    top = diagram.max_path(4, 1)
    ids = {e: i for i, e in enumerate(diagram.edges())}
    with pytest.raises(MaximalPathError):
        diagram.adic_successors(np.array([[ids[e] for e in top.edges]]))


def test_random_path_ids_are_random_path(built):
    diagram = built.diagram
    ids = {e: i for i, e in enumerate(diagram.edges())}
    a, b = random.Random(17), random.Random(17)
    for level in (1, 2, 6):
        for _ in range(100):
            assert diagram.random_path_ids(level, a) == [ids[e] for e in diagram.random_path(level, b).edges]


def climb_to_floor(diagram, p):
    """Height of a path's floor by the per-edge climb over whole words."""
    height = 0
    for m in range(len(p), 0, -1):
        e = p.edges[m - 1]
        sub = diagram.heights(m - 1)
        word = diagram.words[e.tower - 1]
        height += sum(sub[word[u] - 1] for u in range(e.floor))
    return height


def descend_to_path(diagram, level, tower, height):
    """Path of a floor by the greedy descent, one letter at a time."""
    edges = []
    h, j = height, tower
    for m in range(level, 0, -1):
        sub = diagram.heights(m - 1)
        word = diagram.words[j - 1]
        l = 0
        while l < len(word) and h >= sub[word[l] - 1]:
            h -= sub[word[l] - 1]
            l += 1
        edges.append(diagram.edge(j, l))
        j = word[l]
    assert h == 0
    return FinitePath(tuple(reversed(edges)))


def test_array_dictionary_matches_the_climb_and_the_descent(built):
    # every path at levels 1-3; a stride of about 1,500 paths at level 4
    diagram = built.diagram
    for level in (1, 2, 3, 4):
        ids = np.concatenate(list(diagram.path_blocks(level)))
        ids = ids[:: max(1, len(ids) // 1500)]
        towers, heights = diagram.paths_to_floors(ids)
        paths = [diagram.path_from_ids(row) for row in ids.tolist()]
        assert towers.tolist() == [p.target - 1 for p in paths]
        assert heights.tolist() == [climb_to_floor(diagram, p) for p in paths]
        back = diagram.floors_to_paths(level, towers, heights)
        assert [diagram.path_from_ids(row) for row in back.tolist()] == [
            descend_to_path(diagram, level, t + 1, h)
            for t, h in zip(towers.tolist(), heights.tolist())
        ]
        assert (back == ids).all()


def test_dictionary_past_int64(built):
    # the first level whose floors outgrow int64 keeps its heights exact
    diagram = built.diagram
    level = next(k for k in range(1, 40) if sum(diagram.heights(k)) >= 2 ** 63)
    assert diagram.offsets(level - 1).dtype == object
    rng = random.Random(5)
    paths = [diagram.random_path(level, rng) for _ in range(20)]
    paths += [diagram.max_path(level, j) for j in range(1, diagram.d + 1)]
    for p in paths:
        fc = diagram.path_to_floor(p)
        assert fc.height == climb_to_floor(diagram, p)
        assert diagram.floor_to_path(level, fc.tower, fc.height) == p
    tops = [diagram.path_to_floor(diagram.max_path(level, j)).height for j in range(1, diagram.d + 1)]
    assert tops == [h - 1 for h in diagram.heights(level)]


def test_floor_sources_are_the_return_words_and_the_first_edges(built):
    diagram = built.diagram
    for level in (0, 1, 2, 3):
        sources = diagram.floor_sources(level)
        words = compose_loop(built.loop, level).words
        assert [tuple((s + 1).tolist()) for s in sources] == list(words)
    for j in range(1, diagram.d + 1):
        assert diagram.floor_sources(2)[j - 1].tolist() == [
            diagram.floor_to_path(2, j, h).source - 1 for h in range(diagram.heights(2)[j - 1])
        ]
