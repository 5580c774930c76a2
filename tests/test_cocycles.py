import random
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from ietskew import cocycles
from ietskew.algebra import vec_add, zero_vector
from ietskew.bratteli import BratteliDiagram, MaximalPathError
from ietskew.cocycles import (
    AperiodicityCertificate,
    CertificateInconclusive,
    FloorCocycle,
    amplify_for_common_prefix,
    recheck_certificate,
    shift_image,
    skewed_adic_step,
    tail_cocycle,
    tail_orbit_witness,
)
from ietskew.iet import IetCombinatorics, RauzyLoop, compose_loop
from ietskew.skew import SkewCocycle


def random_nonmax_path(diagram, level, rng):
    while True:
        p = tuple(diagram.random_path_ids(level, rng))
        if not diagram.is_maximal(p):
            return p


def source(diagram, p):
    """1-based tower under a path's first edge."""
    return int(diagram.source[p[0]]) + 1


def vec_sub(a, b):
    """a - b for two elements of Z^m, as a tuple."""
    return tuple(x - y for x, y in zip(a, b, strict=True))


def certificate_from_dict(data):
    """The AperiodicityCertificate that ``to_dict`` wrote as ``data``."""
    return AperiodicityCertificate(
        exponent=data["exponent"],
        repetition=data["repetition"],
        prefix_length=data["M"],
        prefix_letters=tuple(data["prefix_letters"]),
        generators=tuple(tuple(g) for g in data["generators"]),
        factors=tuple(data["invariant_factors"]),
        verdict=data["verdict"],
        q_min=data["q_min"],
    )


def f_of(fl, e):
    """f of one edge id, as a tuple."""
    return tuple(fl.f[e].tolist())


def tail_of(fl, p):
    """The tail cocycle of one path: ``tail_cocycle`` of one row."""
    return tuple(tail_cocycle(fl, np.array([p]))[0].tolist())


def states(ids, fibers):
    """Rows of skewed states, an (ids, fiber) pair of arrays, from lists of
    edge-id rows and fiber rows."""
    return np.array(ids), np.array(fibers).reshape(len(ids), -1)


def rows(state):
    """An (ids, fiber) pair of arrays as lists of rows, for comparison."""
    ids, fiber = state
    return ids.tolist(), fiber.tolist()


def witnesses(fl, s1, s2, depth):
    """``tail_orbit_witness`` per pair: n, or None where there is no witness."""
    n, found = tail_orbit_witness(fl, s1, s2, depth)
    return [int(x) if ok else None for x, ok in zip(n, found)]


# -- the floor cocycle f ------------------------------------------------------


def test_floor_cocycle_values(built):
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    for j in range(1, diagram.d + 1):
        word, first = diagram.words[j - 1], diagram.first_ids[j - 1]
        assert f_of(fl, first) == zero_vector(phi.m)
        if diagram.q[j - 1] > 1:
            assert f_of(fl, first + 1) == vec_sub(
                zero_vector(phi.m), phi.of_label(word[0])
            )
        if diagram.q[j - 1] > 2:
            expected = vec_sub(
                vec_sub(zero_vector(phi.m), phi.of_label(word[0])),
                phi.of_label(word[1]),
            )
            assert f_of(fl, first + 2) == expected


def test_floor_cocycle_arrays_match_the_words(built):
    # each edge (j, l), in id order, against minus phi summed up word j
    fl, diagram, phi = built.floor, built.diagram, built.phi
    edges = [(j, l) for j, w in enumerate(diagram.words, 1) for l in range(len(w))]
    assert fl.f.shape == (len(edges), phi.m)
    for (j, l), f, cell in zip(edges, fl.f.tolist(), fl.cell):
        below = zero_vector(phi.m)
        for letter in diagram.words[j - 1][:l]:
            below = vec_sub(below, phi.of_label(letter))
        assert tuple(f) == below
        assert divmod(cell, diagram.d) == (diagram.words[j - 1][l] - 1, j - 1)


def test_built_floor_is_one_per_built_instance(built):
    assert built.floor is built.floor
    negated = SkewCocycle([[-x for x in v] for v in built.phi.values])
    flipped = replace(built, phi=negated).floor
    assert flipped.phi == negated
    assert np.array_equal(flipped.f, FloorCocycle(built.diagram, negated).f)
    other = BratteliDiagram(built.tower)
    assert replace(built, diagram=other).floor.diagram is other


# -- tail cocycle and its recurrences ----------------------------------------


def test_tail_cocycle_equals_phi(built):
    fl, diagram, phi = built.floor, built.diagram, built.phi
    rng = random.Random(31)
    by_level = {}
    for _ in range(1000):
        p = random_nonmax_path(diagram, rng.choice([2, 3, 4]), rng)
        by_level.setdefault(len(p), []).append(p)
    for paths in by_level.values():
        tails = tail_cocycle(fl, np.array(paths))
        assert [tuple(t) for t in tails.tolist()] == [phi.of_label(source(diagram, p)) for p in paths]


def test_tail_cocycle_non_top_floor_form(built):
    # away from the top floor only the first shift contributes
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(32)
    hits = 0
    while hits < 200:
        p = tuple(diagram.random_path_ids(3, rng))
        if diagram.is_maximal(p[:1]):
            continue
        hits += 1
        succ = diagram.adic_successor(p)
        assert tail_of(fl, p) == vec_sub(f_of(fl, p[0]), f_of(fl, succ[0]))


def test_top_floor_recurrence(built):
    # on a maximal first edge: f(p) - phi(p) + phi(shift p) = 0
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    for j in range(1, diagram.d + 1):
        top = diagram.top_ids[j - 1]
        for e2 in diagram.out[j - 1]:
            if e2 < 0:
                continue
            p = (top, int(e2))
            lhs = vec_add(
                vec_sub(f_of(fl, top), phi.of_label(source(diagram, p))),
                phi.of_label(source(diagram, p[1:])),
            )
            assert lhs == zero_vector(phi.m)


def test_f_recurrence_under_successor(built):
    # f(succ p) = 0 on top floors (successor lands on a bottom floor),
    # otherwise f(succ p) = f(p) - phi(p)
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(33)
    for _ in range(400):
        p = random_nonmax_path(diagram, 3, rng)
        succ = diagram.adic_successor(p)
        if diagram.is_maximal(p[:1]):
            assert f_of(fl, succ[0]) == zero_vector(phi.m)
        else:
            assert f_of(fl, succ[0]) == vec_sub(f_of(fl, p[0]), phi.of_label(source(diagram, p)))


def test_tail_cocycle_undefined_on_maximal(built):
    p = built.diagram.max_path(3, 1)
    with pytest.raises(MaximalPathError):
        tail_of(built.floor, p)


def test_birkhoff_telescoping_identity(built):
    # summed over n successor steps, the tail cocycle telescopes against
    # shift sums of f once the shifted paths agree
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(34)
    level = 9
    for _ in range(40):
        p = random_nonmax_path(diagram, level, rng)
        n = rng.randint(1, 20)
        sum_tail = zero_vector(phi.m)
        q = p
        ok = True
        for _ in range(n):
            if diagram.is_maximal(q):
                ok = False
                break
            sum_tail = vec_add(sum_tail, tail_of(fl, q))
            q = diagram.adic_successor(q)
        if not ok:
            continue
        k = next(
            (
                k
                for k in range(level + 1)
                if p[k:] == q[k:]
            ),
            None,
        )
        assert k is not None
        lhs = sum_tail
        rhs = vec_sub(fl.path_sum(p[:k]), fl.path_sum(q[:k]))
        assert lhs == rhs


# -- skewed steps -------------------------------------------------------------


def test_skewed_adic_step_and_inverse(built):
    fl, diagram, phi = built.floor, built.diagram, built.phi
    rng = random.Random(35)
    paths = [random_nonmax_path(diagram, 3, rng) for _ in range(200)]
    stepped = skewed_adic_step(fl, *states(paths, [zero_vector(phi.m)] * 200))
    assert stepped[1].tolist() == [list(phi.of_label(source(diagram, p))) for p in paths]
    for p, ids, fiber in zip(paths, *rows(stepped)):
        # the inverse: one floor down in the dictionary, minus phi under it
        floor = diagram.path_to_floor(tuple(ids))
        prev = diagram.floor_to_path(3, floor.tower, floor.height - 1)
        assert (prev, vec_sub(tuple(fiber), phi.of_label(source(diagram, prev)))) == (p, zero_vector(phi.m))


def test_skewed_shift_step(built):
    # one skewed shift step is the shift image at depth 1: (p, a) -> (p
    # without its first edge, a + f(p))
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(36)
    paths = [tuple(diagram.random_path_ids(3, rng)) for _ in range(100)]
    state = states(paths, [(7,) * phi.m] * 100)
    for p, ids, fiber in zip(paths, *rows(shift_image(fl, *state, 1))):
        assert tuple(ids) == p[1:]
        assert tuple(fiber) == vec_add((7,) * phi.m, f_of(fl, p[0]))
        # bottom floors leave the fiber unchanged
        if p[0] in diagram.first_ids:
            assert tuple(fiber) == (7,) * phi.m
    with pytest.raises(ValueError):
        shift_image(fl, *state, 4)


def test_skewed_iteration_accumulates_birkhoff_sums(built):
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(37)
    p = tuple(diagram.random_path_ids(4, rng))
    state = states([p], [zero_vector(phi.m)])
    for k in range(1, 4):
        assert rows(shift_image(fl, *state, k)) == ([list(p[k:])], [list(fl.path_sum(p[:k]))])
        state_k = shift_image(fl, *state, k)
        assert rows(shift_image(fl, *state_k, 1)) == rows(shift_image(fl, *state, k + 1))


def test_path_sum_of_no_shifts_is_zero(built):
    fl = built.floor
    rng = random.Random(39)
    for level in (1, 3):
        p = tuple(built.diagram.random_path_ids(level, rng))
        assert fl.path_sum(p[:0]) == zero_vector(built.phi.m)


def test_path_sum_matches_path_block_sums(built):
    # every level-3 path, edge by edge; one-row path_sum on a stride of them
    diagram = built.diagram
    fl = built.floor
    ids = np.concatenate(list(diagram.path_blocks(3)))
    stride = max(1, len(ids) // 500)
    for k in range(4):
        sums = fl.f[ids[:, :k]].sum(axis=1)
        by_edge = np.zeros_like(sums)
        for c in range(k):
            by_edge += fl.f[ids[:, c]]
        assert (sums == by_edge).all()
        strided = [fl.path_sum(tuple(row)[:k]) for row in ids[::stride].tolist()]
        assert [tuple(s) for s in sums[::stride].tolist()] == strided


# -- tail equivalence vs orbit equivalence -----------------------------------


def test_witness_trivial_and_single_step(built):
    fl, diagram, phi = built.floor, built.diagram, built.phi
    rng = random.Random(38)
    s1 = states([random_nonmax_path(diagram, 3, rng) for _ in range(50)], [zero_vector(phi.m)] * 50)
    assert witnesses(fl, s1, s1, 3) == [0] * 50
    s2 = skewed_adic_step(fl, *s1)
    assert witnesses(fl, s1, s2, 3) == [1] * 50
    assert witnesses(fl, s2, s1, 3) == [-1] * 50


def test_witness_exhaustive_level2(built):
    # enumerate one full skew tower per label, one skewed step at a time:
    # every floor has the same depth-2 shift image as the base, and the
    # orbit index is the height
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    depth = 2
    for j in range(1, diagram.d + 1):
        base = diagram.min_path(depth, j)
        state = states([base], [zero_vector(phi.m)])
        img0 = rows(shift_image(fl, *state, depth))
        height = diagram.heights(depth)[j - 1]
        chain = [state]
        for _ in range(height - 1):
            state = skewed_adic_step(fl, *state)
            assert rows(shift_image(fl, *state, depth)) == img0
            chain.append(state)
        ids, fibers = (np.concatenate(part) for part in zip(*chain))
        assert diagram.is_maximal(ids[-1])
        # spot-validate the witness search against the enumerated chain
        rng = random.Random(39 + j)
        pairs = (
            [(a, b) for a in range(height) for b in range(height)]
            if height <= 25
            else [
                (rng.randrange(height), rng.randrange(height)) for _ in range(120)
            ]
        )
        a, b = np.array(pairs).T
        n = witnesses(fl, (ids[a], fibers[a]), (ids[b], fibers[b]), depth)
        assert n == (b - a).tolist()


def test_witness_rejects_different_tails(built):
    fl, diagram, phi = built.floor, built.diagram, built.phi
    base1 = diagram.min_path(2, 1)
    s1 = states([base1], [zero_vector(phi.m)])
    shifted_fiber = states([base1], [tuple(5 for _ in range(phi.m))])
    assert witnesses(fl, s1, shifted_fiber, 2) == [None]


def test_witness_none_for_empty_tails_in_different_towers(built):
    # floor-0 paths of towers 1 and 2 with equal fibers have equal shift
    # images, at the same height: only the tower tells them apart
    fl, diagram, phi = built.floor, built.diagram, built.phi
    s1 = states([diagram.min_path(2, 1)], [zero_vector(phi.m)])
    s2 = states([diagram.min_path(2, 2)], [zero_vector(phi.m)])
    assert rows(shift_image(fl, *s1, 2))[1] == rows(shift_image(fl, *s2, 2))[1]
    assert witnesses(fl, s1, s2, 2) == [None]
    assert witnesses(fl, s2, s1, 2) == [None]


def test_witness_none_when_the_fiber_identity_fails(built):
    fl, diagram, phi = built.floor, built.diagram, built.phi
    rng = random.Random(40)
    s1 = states([random_nonmax_path(diagram, 3, rng) for _ in range(50)], [zero_vector(phi.m)] * 50)
    ids, fiber = skewed_adic_step(fl, *s1)
    off = (ids, fiber + ((0,) * (phi.m - 1) + (1,)))
    assert witnesses(fl, s1, off, 3) == [None] * 50
    assert witnesses(fl, off, s1, 3) == [None] * 50


def test_witness_below_a_shared_tail(built):
    # level-5 states at depth 2: n adic steps that stay inside the level-2
    # tower keep edges 3-5, and the witness finds n and -n
    fl, diagram, phi = built.floor, built.diagram, built.phi
    rng = random.Random(41)
    for _ in range(30):
        s1 = states([diagram.random_path_ids(5, rng)], [(3,) * phi.m])
        s2, n = s1, 0
        for _ in range(rng.randint(1, 8)):
            if diagram.is_maximal(s2[0][0, :2]):
                break
            s2, n = skewed_adic_step(fl, *s2), n + 1
        assert s2[0][0, 2:].tolist() == s1[0][0, 2:].tolist()
        assert witnesses(fl, s1, s2, 2) == [n]
        assert witnesses(fl, s2, s1, 2) == [-n]
        other_tail = diagram.random_path_ids(5, rng)
        if other_tail[2:] != s1[0][0, 2:].tolist():
            s3 = states([other_tail], s1[1])
            assert witnesses(fl, s1, s3, 2) == [None]
    for depth in (0, 6):
        with pytest.raises(ValueError):
            tail_orbit_witness(fl, s1, s1, depth)


def test_witness_answers_every_pair_of_a_batch(built):
    # one call over pairs of mixed outcomes gives each pair its own answer
    fl, diagram, phi = built.floor, built.diagram, built.phi
    rng = random.Random(42)
    s1 = states([random_nonmax_path(diagram, 3, rng) for _ in range(40)], [zero_vector(phi.m)] * 40)
    s2 = skewed_adic_step(fl, *s1)
    pick = np.arange(40) % 2 == 0  # even pairs step, odd pairs stay; pair 3 is moved off
    mixed = tuple(np.where(pick[:, None], b, a) for a, b in zip(s1, s2))
    mixed[1][3] += 1
    expected = [None if i == 3 else int(pick[i]) for i in range(40)]
    assert witnesses(fl, s1, mixed, 3) == expected
    # paths of another length share no tail
    ids, fiber = s1
    assert witnesses(fl, s1, (ids[:, :2], fiber), 2) == [None] * 40


# -- aperiodicity certificate -------------------------------------------------


def test_certificate_on_instances(built):
    cert = amplify_for_common_prefix(built.loop, built.phi)
    assert cert.verdict
    assert cert.factors == (1,) * built.phi.m
    assert set(cert.generators) == set(built.phi.values)
    assert cert.q_min > cert.prefix_length + 1
    assert set(cert.prefix_letters) == set(range(1, built.tower.d + 1))
    assert recheck_certificate(built.loop, built.phi, cert)


def test_certificate_roundtrip(built):
    cert = amplify_for_common_prefix(built.loop, built.phi)
    again = certificate_from_dict(cert.to_dict())
    assert again == cert
    assert recheck_certificate(built.loop, built.phi, again)


def moved_generator(cert):
    """The generators of ``cert``, the first one's first coordinate moved by 1."""
    g = cert.generators[0]
    return ((g[0] + 1, *g[1:]), *cert.generators[1:])


TAMPERED = {
    "exponent": lambda c: c.exponent + 1,
    "repetition": lambda c: c.repetition + 1,
    "prefix_length": lambda c: c.prefix_length + 1,
    "prefix_letters": lambda c: (c.prefix_letters[0] % 3 + 1, *c.prefix_letters[1:]),
    "generators": moved_generator,
    "factors": lambda c: (2, *c.factors[1:]),
    "verdict": lambda c: not c.verdict,
    "q_min": lambda c: c.q_min + 1,
}


@pytest.mark.parametrize("field", [f.name for f in fields(AperiodicityCertificate)])
def test_recheck_refuses_each_tampered_field(built, field):
    cert = amplify_for_common_prefix(built.loop, built.phi)
    tampered = replace(cert, **{field: TAMPERED[field](cert)})
    assert getattr(tampered, field) != getattr(cert, field)
    assert not recheck_certificate(built.loop, built.phi, tampered)


def test_recheck_refuses_an_exponent_off_the_repetition(golden):
    # golden_triple certifies at repetition 2 of a loop with amplification 1
    cert = amplify_for_common_prefix(golden.loop, golden.phi)
    assert (cert.exponent, cert.repetition, golden.loop.amplification) == (2, 2, 1)
    for exponent in (3, 999):
        assert not recheck_certificate(golden.loop, golden.phi, replace(cert, exponent=exponent))


def test_certificate_rejects_non_periodic(built):
    values = [list(v) for v in built.phi.values]
    values[0][0] += 1
    with pytest.raises(ValueError):
        amplify_for_common_prefix(built.loop, SkewCocycle(values))


def composed_repetitions(monkeypatch):
    """The repetitions the certificate composes the loop at, in call order."""
    reps, exact = [], cocycles.compose_loop

    def counting(loop, rep):
        reps.append(rep)
        return exact(loop, rep)

    monkeypatch.setattr(cocycles, "compose_loop", counting)
    return reps


def test_certificate_stops_before_building_words_past_the_cap(golden, monkeypatch):
    # golden_triple's repetitions 1 and 2 have 17 and 99 letters; with the
    # cap between them, repetition 1 is built and undecided, and repetition
    # 2 ends the search before its words are built
    assert [sum(compose_loop(golden.loop, rep).q) for rep in (1, 2)] == [17, 99]
    monkeypatch.setattr(cocycles, "MAX_TOTAL_WORD_LENGTH", 50)
    reps = composed_repetitions(monkeypatch)
    with pytest.raises(CertificateInconclusive, match=r"repetition 2: sum q = 99 > 50; last state: rep=1 "):
        amplify_for_common_prefix(golden.loop, golden.phi)
    assert reps == [1]


def test_certificate_stops_at_once_when_the_shortest_word_is_a_common_prefix(monkeypatch):
    # the shortest of this loop's return words (7 letters) begins all three,
    # so q_min = M + 1 at every repetition; the words of repetition 8 would
    # have 1,037,504,259 letters, and no repetition after the first is built
    loop = RauzyLoop(IetCombinatorics((1, 2, 3), (3, 2, 1)), "bttttbttbb")
    phi = SkewCocycle([[0], [1], [-4]])
    reps = composed_repetitions(monkeypatch)
    start = time.perf_counter()
    reason = r"prefix of every return word, so q_min = M \+ 1 at every repetition; last state: rep=1 M=6 q_min=7 "
    with pytest.raises(CertificateInconclusive, match=reason):
        amplify_for_common_prefix(loop, phi)
    assert time.perf_counter() - start < 1.0
    assert reps == [1]


def test_cycle_concatenation_additivity(built):
    # two equal-length cycle pairs through a shared vertex concatenate to a
    # pair whose f-sum difference is the sum of the differences; A is
    # positive, so every vertex has closed walks of every length
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)

    def cycles_at(v, n):
        closed = np.concatenate([ids[(diagram.source[ids[:, 0]] == v - 1) & (diagram.target[ids[:, -1]] == v - 1)]
                                 for ids in diagram.path_blocks(n)])
        return tuple(closed[0].tolist()), tuple(closed[-1].tolist())

    def f_sum(cycle):
        acc = zero_vector(phi.m)
        for e in cycle:
            acc = vec_add(acc, f_of(fl, e))
        return acc

    v = 1
    pair_a = cycles_at(v, 3)
    pair_b = cycles_at(v, 4)
    delta_a = vec_sub(f_sum(pair_a[0]), f_sum(pair_a[1]))
    delta_b = vec_sub(f_sum(pair_b[0]), f_sum(pair_b[1]))
    concat_1 = pair_a[0] + pair_b[0]
    concat_2 = pair_a[1] + pair_b[1]
    assert vec_sub(f_sum(concat_1), f_sum(concat_2)) == vec_add(delta_a, delta_b)
