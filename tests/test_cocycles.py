import random
import time

import numpy as np
import pytest

from ietskew.algebra import vec_add, vec_sub, zero_vector
from ietskew.bratteli import MaximalPathError
from ietskew.cocycles import (
    AperiodicityCertificate,
    CertificateInconclusive,
    FloorCocycle,
    SkewedPathState,
    amplify_for_common_prefix,
    delta_closure_probe,
    recheck_certificate,
    sample_cycle,
    shift_image,
    skewed_adic_step,
    skewed_shift_step,
    tail_cocycle,
    tail_orbit_witness,
)
from ietskew.iet import IetCombinatorics, RauzyLoop, compose_loop
from ietskew.skew import SkewCocycle


def random_nonmax_path(diagram, level, rng):
    while True:
        p = diagram.random_path(level, rng)
        if not diagram.is_maximal(p):
            return p


# -- the floor cocycle f ------------------------------------------------------


def test_floor_cocycle_values(built):
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    for j in range(1, diagram.d + 1):
        word = diagram.words[j - 1]
        assert fl.of_edge(diagram.edge(j, 0)) == zero_vector(phi.m)
        if diagram.q[j - 1] > 1:
            assert fl.of_edge(diagram.edge(j, 1)) == vec_sub(
                zero_vector(phi.m), phi.of_label(word[0])
            )
        if diagram.q[j - 1] > 2:
            expected = vec_sub(
                vec_sub(zero_vector(phi.m), phi.of_label(word[0])),
                phi.of_label(word[1]),
            )
            assert fl.of_edge(diagram.edge(j, 2)) == expected


def test_floor_cocycle_kept_per_phi_with_matching_arrays(built):
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle.of(diagram, phi)
    assert FloorCocycle.of(diagram, SkewCocycle(phi.values)) is fl
    negated = SkewCocycle([[-x for x in v] for v in phi.values])
    assert FloorCocycle.of(diagram, negated) is not fl
    edges = list(diagram.edges())
    assert fl.f.shape == (len(edges), phi.m)
    for e, f, cell in zip(edges, fl.f.tolist(), fl.cell):
        assert tuple(f) == fl.of_edge(e)
        assert divmod(cell, diagram.d) == (e.source - 1, e.tower - 1)


# -- tail cocycle and its recurrences ----------------------------------------


def test_tail_cocycle_equals_phi(built):
    diagram, phi = built.diagram, built.phi
    rng = random.Random(31)
    for _ in range(1000):
        p = random_nonmax_path(diagram, rng.choice([2, 3, 4]), rng)
        assert tail_cocycle(diagram, p, phi) == phi.of_label(p.source)


def test_tail_cocycle_non_top_floor_form(built):
    # away from the top floor only the first shift contributes
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(32)
    hits = 0
    while hits < 200:
        p = diagram.random_path(3, rng)
        if diagram.is_max_edge(p.edges[0]):
            continue
        hits += 1
        succ = diagram.adic_successor(p)
        assert tail_cocycle(diagram, p, phi) == vec_sub(fl.of_path(p), fl.of_path(succ))


def test_top_floor_recurrence(built):
    # on a maximal first edge: f(p) - phi(p) + phi(shift p) = 0
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    for j in range(1, diagram.d + 1):
        top = diagram.edge(j, diagram.q[j - 1] - 1)
        for e2 in diagram.edges_by_source[j]:
            p = None
            from ietskew.bratteli import FinitePath

            p = FinitePath((top, e2))
            lhs = vec_add(
                vec_sub(fl.of_path(p), phi.of_label(p.source)),
                phi.of_label(diagram.left_shift(p).source),
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
        if diagram.is_max_edge(p.edges[0]):
            assert fl.of_path(succ) == zero_vector(phi.m)
        else:
            assert fl.of_path(succ) == vec_sub(fl.of_path(p), phi.of_label(p.source))


def test_tail_cocycle_undefined_on_maximal(built):
    p = built.diagram.max_path(3, 1)
    with pytest.raises(MaximalPathError):
        tail_cocycle(built.diagram, p, built.phi)


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
            sum_tail = vec_add(sum_tail, tail_cocycle(diagram, q, phi))
            q = diagram.adic_successor(q)
        if not ok:
            continue
        k = next(
            (
                k
                for k in range(level + 1)
                if p.edges[k:] == q.edges[k:]
            ),
            None,
        )
        assert k is not None
        lhs = sum_tail
        rhs = vec_sub(fl.path_sum(p, k), fl.path_sum(q, k))
        assert lhs == rhs


# -- skewed steps -------------------------------------------------------------


def test_skewed_adic_step_and_inverse(built):
    diagram, phi = built.diagram, built.phi
    rng = random.Random(35)
    for _ in range(200):
        p = random_nonmax_path(diagram, 3, rng)
        state = SkewedPathState(p, zero_vector(phi.m))
        stepped = skewed_adic_step(diagram, state, phi)
        assert stepped.fiber == phi.of_label(p.source)
        # the inverse: one floor down in the dictionary, minus phi under it
        floor = diagram.path_to_floor(stepped.path)
        prev = diagram.floor_to_path(3, floor.tower, floor.height - 1)
        assert SkewedPathState(prev, vec_sub(stepped.fiber, phi.of_label(prev.source))) == state


def test_skewed_shift_step(built):
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(36)
    for _ in range(100):
        p = diagram.random_path(3, rng)
        state = SkewedPathState(p, (7,) * phi.m)
        shifted = skewed_shift_step(diagram, state, phi)
        assert shifted.path == diagram.left_shift(p)
        assert shifted.fiber == vec_add((7,) * phi.m, fl.of_path(p))
        # bottom floors leave the fiber unchanged
        if p.edges[0].floor == 0:
            assert shifted.fiber == state.fiber


def test_skewed_iteration_accumulates_birkhoff_sums(built):
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(37)
    p = diagram.random_path(4, rng)
    state = SkewedPathState(p, zero_vector(phi.m))
    for k in range(1, 4):
        state = skewed_shift_step(diagram, state, phi)
        assert state.fiber == fl.path_sum(p, k)


def test_path_sum_of_no_shifts_is_zero(built):
    fl = FloorCocycle.of(built.diagram, built.phi)
    rng = random.Random(39)
    for level in (1, 3):
        p = built.diagram.random_path(level, rng)
        assert fl.path_sum(p, 0) == zero_vector(built.phi.m)


def test_path_sum_matches_path_block_sums(built):
    diagram = built.diagram
    fl = FloorCocycle.of(diagram, built.phi)
    ids = np.concatenate(list(diagram.path_blocks(3)))
    for k in range(4):
        sums = fl.f[ids[:, :k]].sum(axis=1).tolist()
        assert [tuple(s) for s in sums] == [fl.path_sum(p, k) for p in diagram.enumerate_paths(3)]


# -- tail equivalence vs orbit equivalence -----------------------------------


def test_witness_trivial_and_single_step(built):
    diagram, phi = built.diagram, built.phi
    rng = random.Random(38)
    for _ in range(50):
        p = random_nonmax_path(diagram, 3, rng)
        s1 = SkewedPathState(p, zero_vector(phi.m))
        assert tail_orbit_witness(diagram, s1, s1, phi, 3) == 0
        s2 = skewed_adic_step(diagram, s1, phi)
        assert tail_orbit_witness(diagram, s1, s2, phi, 3) == 1
        assert tail_orbit_witness(diagram, s2, s1, phi, 3) == -1


def test_witness_exhaustive_level2(built):
    # enumerate one full skew tower per label: every floor has the same
    # depth-2 shift image as the base, and the orbit index is the height
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    depth = 2
    for j in range(1, diagram.d + 1):
        base = diagram.min_path(depth, j)
        state = SkewedPathState(base, zero_vector(phi.m))
        img0 = shift_image(fl, state, depth)
        height = diagram.heights(depth)[j - 1]
        chain = [state]
        for _ in range(height - 1):
            state = skewed_adic_step(diagram, state, phi)
            assert shift_image(fl, state, depth) == img0
            chain.append(state)
        assert diagram.is_maximal(chain[-1].path)
        # spot-validate the witness search against the enumerated chain
        rng = random.Random(39 + j)
        pairs = (
            [(a, b) for a in range(height) for b in range(height)]
            if height <= 25
            else [
                (rng.randrange(height), rng.randrange(height)) for _ in range(120)
            ]
        )
        for a, b in pairs:
            n = tail_orbit_witness(diagram, chain[a], chain[b], phi, depth)
            assert n == b - a


def test_witness_rejects_different_tails(built):
    diagram, phi = built.diagram, built.phi
    base1 = diagram.min_path(2, 1)
    s1 = SkewedPathState(base1, zero_vector(phi.m))
    shifted_fiber = SkewedPathState(base1, tuple(5 for _ in range(phi.m)))
    assert tail_orbit_witness(diagram, s1, shifted_fiber, phi, 2) is None


def test_witness_none_for_empty_tails_in_different_towers(built):
    # floor-0 paths of towers 1 and 2 with equal fibers have equal shift
    # images, at the same height: only the tower tells them apart
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle.of(diagram, phi)
    s1 = SkewedPathState(diagram.min_path(2, 1), zero_vector(phi.m))
    s2 = SkewedPathState(diagram.min_path(2, 2), zero_vector(phi.m))
    assert shift_image(fl, s1, 2)[1] == shift_image(fl, s2, 2)[1]
    assert tail_orbit_witness(diagram, s1, s2, phi, 2) is None
    assert tail_orbit_witness(diagram, s2, s1, phi, 2) is None


def test_witness_none_when_the_fiber_identity_fails(built):
    diagram, phi = built.diagram, built.phi
    rng = random.Random(40)
    for _ in range(50):
        s1 = SkewedPathState(random_nonmax_path(diagram, 3, rng), zero_vector(phi.m))
        s2 = skewed_adic_step(diagram, s1, phi)
        off = SkewedPathState(s2.path, vec_add(s2.fiber, (0,) * (phi.m - 1) + (1,)))
        assert tail_orbit_witness(diagram, s1, off, phi, 3) is None
        assert tail_orbit_witness(diagram, off, s1, phi, 3) is None


def test_witness_below_a_shared_tail(built):
    # level-5 states at depth 2: n adic steps that stay inside the level-2
    # tower keep edges 3-5, and the witness finds n and -n
    diagram, phi = built.diagram, built.phi
    rng = random.Random(41)
    for _ in range(30):
        s1 = SkewedPathState(diagram.random_path(5, rng), (3,) * phi.m)
        s2, n = s1, 0
        for _ in range(rng.randint(1, 8)):
            if diagram.is_maximal(s2.path.truncate(2)):
                break
            s2, n = skewed_adic_step(diagram, s2, phi), n + 1
        assert s2.path.edges[2:] == s1.path.edges[2:]
        assert tail_orbit_witness(diagram, s1, s2, phi, 2) == n
        assert tail_orbit_witness(diagram, s2, s1, phi, 2) == -n
        other_tail = diagram.random_path(5, rng)
        if other_tail.edges[2:] != s1.path.edges[2:]:
            assert tail_orbit_witness(diagram, s1, SkewedPathState(other_tail, s1.fiber), phi, 2) is None
    with pytest.raises(ValueError):
        tail_orbit_witness(diagram, s1, s1, phi, 6)


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
    again = AperiodicityCertificate.from_dict(cert.to_dict())
    assert again == cert
    assert recheck_certificate(built.loop, built.phi, again)


def test_certificate_rejects_non_periodic(built):
    values = [list(v) for v in built.phi.values]
    values[0][0] += 1
    with pytest.raises(ValueError):
        amplify_for_common_prefix(built.loop, SkewCocycle(values))


def test_certificate_stops_before_building_words_past_the_cap():
    # repetitions 1, 2, 4 have 31, 363 and 51,459 letters; repetition 8
    # would have 1,037,504,259, past MAX_TOTAL_WORD_LENGTH
    loop = RauzyLoop(IetCombinatorics((1, 2, 3), (3, 2, 1)), "bttttbttbb")
    phi = SkewCocycle([[0], [1], [-4]])
    assert [sum(compose_loop(loop, rep).q) for rep in (1, 2, 4)] == [31, 363, 51459]
    start = time.perf_counter()
    with pytest.raises(CertificateInconclusive, match=r"repetition 8: sum q = 1037504259 > 10000000"):
        amplify_for_common_prefix(loop, phi)
    assert time.perf_counter() - start < 1.0


def test_closure_probe(built):
    cert = amplify_for_common_prefix(built.loop, built.phi)
    assert delta_closure_probe(
        built.diagram, built.phi, cert.generators, samples=100, seed=17
    )


def test_cycle_concatenation_additivity(built):
    # two equal-length cycle pairs through a shared vertex concatenate to a
    # pair whose f-sum difference is the sum of the differences
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle(diagram, phi)
    rng = random.Random(41)

    def cycles_at(v, n, want):
        out = []
        attempts = 0
        while len(out) < want and attempts < 20000:
            attempts += 1
            c = sample_cycle(diagram, rng)
            if c is not None and len(c) == n and c[0].source == v:
                out.append(c)
        return out

    def f_sum(cycle):
        acc = zero_vector(phi.m)
        for e in cycle:
            acc = vec_add(acc, fl.of_edge(e))
        return acc

    v = 1
    pair_a = cycles_at(v, 3, 2)
    pair_b = cycles_at(v, 4, 2)
    if len(pair_a) < 2 or len(pair_b) < 2:
        pytest.skip("not enough short cycles through the hub vertex")
    delta_a = vec_sub(f_sum(pair_a[0]), f_sum(pair_a[1]))
    delta_b = vec_sub(f_sum(pair_b[0]), f_sum(pair_b[1]))
    concat_1 = pair_a[0] + pair_b[0]
    concat_2 = pair_a[1] + pair_b[1]
    assert vec_sub(f_sum(concat_1), f_sum(concat_2)) == vec_add(delta_a, delta_b)
