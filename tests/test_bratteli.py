import random
from itertools import product

import numpy as np
import pytest

from ietskew import bratteli
from ietskew.bratteli import BratteliDiagram, MaximalPathError
from ietskew.iet import TowerSystem, compose_loop


@pytest.fixture(scope="module")
def odometer():
    # one vertex, two ordered edges per level: binary odometer
    return BratteliDiagram(TowerSystem(1, ((2,),), (b"\x01\x01",), (2,)))


def bits_to_path(diagram, bits):
    return tuple(diagram.first_ids[0] + b for b in bits)


def path_to_bits(diagram, p):
    return tuple(diagram.floor[list(p)].tolist())


def label(diagram, p):
    """The string of a path: its edges' (j,l) labels in order."""
    return "".join(diagram.labels[i] for i in p)


def source(diagram, p):
    """1-based tower under a path's first edge."""
    return int(diagram.source[p[0]]) + 1


def target(diagram, p):
    """1-based tower a path's last edge goes into."""
    return int(diagram.target[p[-1]]) + 1


def admissible(diagram, p):
    """Whether each edge of a nonempty path leaves the tower the edge before it goes into."""
    return len(p) > 0 and all(diagram.target[a] == diagram.source[b] for a, b in zip(p, p[1:]))


def edge_list(diagram):
    """(tower, floor, source) of each edge, in edge id order, read off the return words."""
    return [(j, l, w[l]) for j, w in enumerate(diagram.words, 1) for l in range(len(w))]


def test_edge_arrays_are_the_return_words(built):
    diagram = built.diagram
    edges = edge_list(diagram)
    assert diagram.num_edges == len(edges)
    assert diagram.source.tolist() == [s - 1 for _, _, s in edges]
    assert diagram.target.tolist() == [j - 1 for j, _, _ in edges]
    assert diagram.floor.tolist() == [l for _, l, _ in edges]
    assert diagram.labels == tuple(f"({j},{l})" for j, l, _ in edges)
    assert diagram.is_top.tolist() == [l == diagram.q[j - 1] - 1 for j, l, _ in edges]
    assert list(diagram.top_ids) == [e for e, (j, l, _) in enumerate(edges) if l == diagram.q[j - 1] - 1]
    assert list(diagram.first_ids) == [e for e, (_, l, _) in enumerate(edges) if l == 0]
    for v in range(1, diagram.d + 1):
        out = [e for e, (_, _, s) in enumerate(edges) if s == v]
        assert diagram.out[v - 1, :len(out)].tolist() == out
        assert (diagram.out[v - 1, len(out):] == -1).all()


def test_finite_path_is_an_admissible_id_tuple(built):
    diagram = built.diagram
    edges = edge_list(diagram)
    p = diagram.max_path(3, 1)
    assert type(p) is tuple and all(type(e) is int for e in p) and admissible(diagram, p)
    assert (len(p), source(diagram, p), target(diagram, p)) == (3, edges[p[0]][2], 1)
    assert label(diagram, p) == "".join(f"({j},{l})" for j, l, _ in (edges[e] for e in p))
    # edge b does not leave the tower that edge a goes into
    a, b = next((a, b) for a, b in product(range(len(edges)), repeat=2) if edges[a][0] != edges[b][2])
    assert not admissible(diagram, (a, b)) and not admissible(diagram, ())


def test_odometer_addition(odometer):
    # 3 = (1,1,0) steps to 4 = (0,0,1)
    p = bits_to_path(odometer, (1, 1, 0))
    succ = odometer.adic_successor(p)
    assert path_to_bits(odometer, succ) == (0, 0, 1)
    assert odometer.path_to_floor(succ).height == 4
    assert odometer.floor_to_path(3, 1, 3) == p
    # full 3-bit cycle enumerates 0..7 in binary order
    value = lambda bits: sum(b << i for i, b in enumerate(bits))
    p = bits_to_path(odometer, (0, 0, 0))
    seen = [value(path_to_bits(odometer, p))]
    for _ in range(7):
        p = odometer.adic_successor(p)
        seen.append(value(path_to_bits(odometer, p)))
    assert seen == list(range(8))
    with pytest.raises(MaximalPathError):
        odometer.adic_successor(bits_to_path(odometer, (1, 1, 1)))


def test_identity_diagram_is_self_loops():
    tower = TowerSystem(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (b"\x01", b"\x02", b"\x03"), (1, 1, 1))
    diagram = BratteliDiagram(tower)
    assert diagram.num_edges == 3
    assert (diagram.source == diagram.target).all() and (diagram.floor == 0).all()


def test_edge_count_and_degrees(built):
    diagram = built.diagram
    assert diagram.num_edges == sum(built.tower.q)
    assert diagram.num_edges > 1
    for i in range(1, diagram.d + 1):
        assert diagram.out[i - 1, 0] >= 0  # out-degree >= 1
        assert (diagram.target == i - 1).any()  # in-degree >= 1


def test_min_max_path_counts(built):
    diagram = built.diagram
    for level in (1, 2, 3):
        paths = list(diagram.enumerate_paths(level))
        maximal = [p for p in paths if diagram.is_maximal(p)]
        minimal = [p for p in paths if set(p) <= set(diagram.first_ids)]
        assert len(maximal) == diagram.d
        assert len(minimal) == diagram.d
        assert sorted(label(diagram, p) for p in maximal) == sorted(
            label(diagram, diagram.max_path(level, j)) for j in range(1, diagram.d + 1)
        )
        assert sorted(label(diagram, p) for p in minimal) == sorted(
            label(diagram, diagram.min_path(level, j)) for j in range(1, diagram.d + 1)
        )


def test_path_floor_bijection_exhaustive(built):
    # every path of levels 1-3, block by block; the one-row calls on a stride
    diagram = built.diagram
    for level in (1, 2, 3):
        heights = np.array(diagram.heights(level))
        ids = np.concatenate(list(diagram.path_blocks(level)))
        towers, floors = diagram.paths_to_floors(ids)
        assert (towers == diagram.target[ids[:, -1]]).all()
        assert ((0 <= floors) & (floors < heights[towers])).all()
        assert len(set(zip(towers.tolist(), floors.tolist()))) == len(ids)  # no floor twice
        assert len(ids) == heights.sum()  # every floor hit exactly once
        assert (diagram.floors_to_paths(level, towers, floors) == ids).all()
        stride = max(1, len(ids) // 300)
        strided = zip(ids[::stride].tolist(), towers[::stride].tolist(), floors[::stride].tolist())
        for row, t, h in strided:
            p = tuple(row)
            fc = diagram.path_to_floor(p)
            assert (fc.level, fc.tower, fc.height) == (level, t + 1, h) and fc.tower == target(diagram, p)
            assert diagram.floor_to_path(level, fc.tower, fc.height) == p


def test_floor_formula_basics(built):
    diagram = built.diagram
    # length-1 path (j, l) sits at height l
    for j in range(1, diagram.d + 1):
        for l in range(diagram.q[j - 1]):
            p = (diagram.first_ids[j - 1] + l,)
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
    # every non-maximal path of levels 1-3; the one-row calls on a stride
    diagram = built.diagram
    for level in (1, 2, 3):
        ids = np.concatenate(list(diagram.path_blocks(level)))
        ids = ids[~diagram.is_top[ids].all(axis=1)]
        succ = diagram.adic_successors(ids)
        (ta, ha), (tb, hb) = diagram.paths_to_floors(ids), diagram.paths_to_floors(succ)
        assert (tb == ta).all()
        assert (hb == ha + 1).all()
        for row in ids[:: max(1, len(ids) // 300)].tolist():
            p = tuple(row)
            a, b = diagram.path_to_floor(p), diagram.path_to_floor(diagram.adic_successor(p))
            assert (b.tower, b.height) == (a.tower, a.height + 1)


def test_successor_minimality_same_tail(built):
    # paths sharing their final edge, sorted lexicographically (last edge
    # most significant): the adic successor is the immediate next element,
    # so nothing lies strictly between a path and its successor
    diagram = built.diagram
    for level in (1, 2):
        by_tail = {}
        for p in diagram.enumerate_paths(level):
            by_tail.setdefault(p[-1], []).append(p)
        for paths in by_tail.values():
            paths.sort(key=lambda p: diagram.floor[list(reversed(p))].tolist())
            for a, b in zip(paths, paths[1:]):
                assert diagram.adic_successor(a) == b


def test_shifts(built):
    # dropping the first edge, and putting the floor-0 edge of the source
    # tower in front, keep a path admissible and undo each other
    diagram = built.diagram
    rng = random.Random(4)
    for _ in range(50):
        p = tuple(diagram.random_path_ids(3, rng))
        shifted = p[1:]
        back = (diagram.first_ids[source(diagram, shifted) - 1],) + shifted
        assert admissible(diagram, shifted) and admissible(diagram, back)
        assert back[1:] == shifted
        assert diagram.floor[back[0]] == 0
        assert diagram.target[back[0]] + 1 == source(diagram, shifted)


def test_right_shift_floor_semantics(built):
    # prepending the minimal edge keeps the floor at the same base one level
    # deeper: the height of iota(p) is the climb of p's edges over the
    # towers one level up
    diagram = built.diagram
    edges = [(j, l) for j, l, _ in edge_list(diagram)]
    for p in diagram.enumerate_paths(2):
        ip = (diagram.first_ids[source(diagram, p) - 1],) + p
        assert admissible(diagram, ip)
        fc = diagram.path_to_floor(ip)
        assert fc.level == 3
        assert fc.tower == diagram.path_to_floor(p).tower
        expected = 0
        for m in range(len(p), 0, -1):
            j, l = edges[p[m - 1]]
            sub = diagram.heights(m)
            word = diagram.words[j - 1]
            expected += sum(sub[word[u] - 1] for u in range(l))
        assert fc.height == expected


def test_path_rendering(built):
    p = built.diagram.min_path(2, 1)
    s = label(built.diagram, p)
    assert s.count("(") == 2 and s.endswith("(1,0)")


def extend_edge_by_edge(diagram, level):
    """Every level-k path as (tower, floor, source) tuples: the edges in
    order, each path extended by the edges out of its target in order."""
    edges = edge_list(diagram)
    paths = [(e,) for e in sorted(edges)]
    for _ in range(level - 1):
        paths = [p + (e,) for p in paths for e in edges if e[2] == p[-1][0]]
    return paths


def test_path_blocks_split_into_enumeration_order(built, monkeypatch):
    # blocks of at most 7 rows force splits inside every level and inside
    # the extensions of a single prefix (out-degrees reach 29)
    monkeypatch.setattr(bratteli, "PATH_BLOCK", 7)
    diagram = built.diagram
    fl = built.floor
    edge_id = {e: i for i, e in enumerate(edge_list(diagram))}
    for level in (1, 2, 3):
        blocks = list(diagram.path_blocks(level))
        assert all(1 <= len(b) <= 7 and b.shape[1] == level for b in blocks)
        ids = np.concatenate(blocks)
        paths = extend_edge_by_edge(diagram, level)
        enumerated = list(diagram.enumerate_paths(level))
        assert enumerated == [tuple(edge_id[e] for e in p) for p in paths]
        assert [label(diagram, p) for p in enumerated] == ["".join(f"({j},{l})" for j, l, _ in p) for p in paths]
        assert len(ids) == len(paths) == sum(diagram.heights(level))
        assert ids.tolist() == [[edge_id[e] for e in p] for p in paths]
        sums = fl.f[ids].sum(axis=1).tolist()
        assert [tuple(s) for s in sums] == [fl.path_sum(p) for p in enumerated]


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


def successor_edge_by_edge(diagram, path):
    """Adic successor of a path of (tower, floor) pairs: the first
    non-maximal edge moves one floor up, and each edge below it becomes the
    floor-0 edge of the tower under the edge above it."""
    for n, (j, l) in enumerate(path):
        if l < diagram.q[j - 1] - 1:
            break
    else:
        raise MaximalPathError(path)
    succ = list(path)
    succ[n] = (j, l + 1)
    for r in range(n - 1, -1, -1):
        j, l = succ[r + 1]
        succ[r] = (diagram.words[j - 1][l], 0)
    return succ


def random_path_edge_by_edge(diagram, level, rng):
    """Uniform-floor random path of (tower, floor) pairs, drawn target-first."""
    j = rng.randrange(1, diagram.d + 1)
    path = [(j, rng.randrange(diagram.q[j - 1]))]
    for _ in range(level - 1):
        j, l = path[-1]
        s = diagram.words[j - 1][l]
        path.append((s, rng.randrange(diagram.q[s - 1])))
    return path[::-1]


def test_adic_successors_match_adic_successor_row_by_row(built):
    diagram = built.diagram
    edges = [(j, l) for j, l, _ in edge_list(diagram)]
    ids = np.concatenate(list(diagram.path_blocks(3)))  # every level-3 path
    rng = random.Random(8)
    sampled = np.array([diagram.random_path_ids(5, rng) for _ in range(2000)])
    for rows in (ids, sampled):
        paths = [[edges[i] for i in row] for row in rows.tolist()]
        keep = [any(l < diagram.q[j - 1] - 1 for j, l in p) for p in paths]
        assert sum(keep) >= len(rows) - diagram.d
        succ = diagram.adic_successors(rows[keep])
        expected = [successor_edge_by_edge(diagram, p) for p, k in zip(paths, keep) if k]
        assert [[edges[i] for i in row] for row in succ.tolist()] == expected
        stride = max(1, len(expected) // 300)
        for row, want in zip(rows[keep][::stride].tolist(), expected[::stride]):
            assert [edges[i] for i in diagram.adic_successor(tuple(row))] == want
    with pytest.raises(MaximalPathError):
        successor_edge_by_edge(diagram, [edges[e] for e in diagram.max_path(3, 1)])


def test_adic_successors_refuse_a_maximal_row(built):
    diagram = built.diagram
    top = diagram.max_path(4, 1)
    with pytest.raises(MaximalPathError):
        diagram.adic_successors(np.array([top]))
    with pytest.raises(MaximalPathError):
        diagram.adic_successor(top)


def test_random_path_ids_are_random_path(built):
    diagram = built.diagram
    edges = [(j, l) for j, l, _ in edge_list(diagram)]
    a, b = random.Random(17), random.Random(17)
    for level in (1, 2, 6):
        for _ in range(100):
            want = random_path_edge_by_edge(diagram, level, b)
            assert [edges[i] for i in diagram.random_path_ids(level, a)] == want


def test_below_draws_as_randrange():
    # n = 1..64 takes in every power of two, where a draw is rejected most
    # often; a one-row table that leads back to itself draws range(n) again
    for seed in (0, 1, 17, 12345):
        a, b = random.Random(seed), random.Random(seed)
        for n in range(1, 65):
            row = ((n, n.bit_length(), 0, (0,) * n),)
            assert bratteli._draw_chain(a.getrandbits, row, 0, 20) == [b.randrange(n) for _ in range(20)]
        assert a.getstate() == b.getstate()


def test_random_path_ids_on_a_level_0_diagram(built):
    # every q_j = 1: each floor draw is getrandbits(1), drawn again while it is 1
    diagram = BratteliDiagram(compose_loop(built.loop, 0))
    assert diagram.q == (1,) * diagram.d
    edges = [(j, l) for j, l, _ in edge_list(diagram)]
    a, b = random.Random(5), random.Random(5)
    for level in (1, 2, 7):
        for _ in range(50):
            want = random_path_edge_by_edge(diagram, level, b)
            assert [edges[i] for i in diagram.random_path_ids(level, a)] == want
    assert a.getstate() == b.getstate()


def climb_to_floor(diagram, path):
    """Height of the floor of a path of (tower, floor) pairs by the per-edge
    climb over whole words."""
    height = 0
    for m in range(len(path), 0, -1):
        j, l = path[m - 1]
        sub = diagram.heights(m - 1)
        word = diagram.words[j - 1]
        height += sum(sub[word[u] - 1] for u in range(l))
    return height


def descend_to_path(diagram, level, tower, height):
    """Path of a floor, as (tower, floor) pairs, by the greedy descent, one
    letter at a time."""
    path = []
    h, j = height, tower
    for m in range(level, 0, -1):
        sub = diagram.heights(m - 1)
        word = diagram.words[j - 1]
        l = 0
        while l < len(word) and h >= sub[word[l] - 1]:
            h -= sub[word[l] - 1]
            l += 1
        path.append((j, l))
        j = word[l]
    assert h == 0
    return path[::-1]


def test_array_dictionary_matches_the_climb_and_the_descent(built):
    # every path at levels 1-3; a stride of about 1,500 paths at level 4
    diagram = built.diagram
    edges = [(j, l) for j, l, _ in edge_list(diagram)]
    for level in (1, 2, 3, 4):
        ids = np.concatenate(list(diagram.path_blocks(level)))
        ids = ids[:: max(1, len(ids) // 1500)]
        towers, heights = diagram.paths_to_floors(ids)
        paths = [[edges[i] for i in row] for row in ids.tolist()]
        assert towers.tolist() == [p[-1][0] - 1 for p in paths]
        assert heights.tolist() == [climb_to_floor(diagram, p) for p in paths]
        back = diagram.floors_to_paths(level, towers, heights)
        assert [[edges[i] for i in row] for row in back.tolist()] == [
            descend_to_path(diagram, level, t + 1, h)
            for t, h in zip(towers.tolist(), heights.tolist())
        ]
        assert (back == ids).all()


def test_dictionary_past_int64(built):
    # the first level whose floors outgrow int64 keeps its heights exact
    diagram = built.diagram
    edges = [(j, l) for j, l, _ in edge_list(diagram)]
    level = next(k for k in range(1, 40) if sum(diagram.heights(k)) >= 2 ** 63)
    assert diagram.offsets(level - 1).dtype == object
    rng = random.Random(5)
    paths = [tuple(diagram.random_path_ids(level, rng)) for _ in range(20)]
    paths += [diagram.max_path(level, j) for j in range(1, diagram.d + 1)]
    for p in paths:
        fc = diagram.path_to_floor(p)
        assert fc.height == climb_to_floor(diagram, [edges[i] for i in p])
        assert diagram.floor_to_path(level, fc.tower, fc.height) == p
    tops = [diagram.path_to_floor(diagram.max_path(level, j)).height for j in range(1, diagram.d + 1)]
    assert tops == [h - 1 for h in diagram.heights(level)]


def test_floor_sources_are_the_return_words_and_the_first_edges(built):
    diagram = built.diagram
    for level in (0, 1, 2, 3):
        sources = diagram.floor_sources(level)
        words = compose_loop(built.loop, level).words
        assert [bytes((s + 1).tolist()) for s in sources] == list(words)
    for j in range(1, diagram.d + 1):
        assert diagram.floor_sources(2)[j - 1].tolist() == [
            source(diagram, diagram.floor_to_path(2, j, h)) - 1 for h in range(diagram.heights(2)[j - 1])
        ]
