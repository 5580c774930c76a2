from bisect import bisect_right

import numpy as np
import pytest

from ietskew.algebra import column_sums, mat_pow
from ietskew.iet import (
    IetCombinatorics,
    LengthData,
    PrecisionAlarm,
    RauzyLoop,
    compose_loop,
    float_orbit_frequencies,
    pf_lengths,
    rauzy_step,
    simulate_return_times,
)
from ietskew.verification import orbit_towers


def test_combinatorics_validation():
    with pytest.raises(ValueError):
        IetCombinatorics((1,), (1,))
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2, 3), (1, 3, 2))  # prefix {1} fixed: reducible
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2), (1, 2))
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2, 2), (2, 2, 1))


def after_step(words, loser, pair):
    """The words after one step: the loser's is its pair's two words, concatenated."""
    words = list(words)
    words[loser - 1] = words[pair[0] - 1] + words[pair[1] - 1]
    return tuple(words)


def test_rauzy_step_top_bottom():
    c = IetCombinatorics((1, 2, 3), (3, 2, 1))
    singletons = ((1,), (2,), (3,))
    ct, loser_t, pair_t = rauzy_step(c, "t")
    assert loser_t == 1 and set(pair_t) - {loser_t} == {3}  # the winner is the pair's other label
    assert ct.top == (1, 2, 3) and ct.bottom == (3, 1, 2)
    assert after_step(singletons, loser_t, pair_t) == ((1, 3), (2,), (3,))
    cb, loser_b, pair_b = rauzy_step(c, "b")
    assert loser_b == 3 and set(pair_b) - {loser_b} == {1}
    assert cb.top == (1, 3, 2) and cb.bottom == (3, 2, 1)
    assert after_step(singletons, loser_b, pair_b) == ((1,), (2,), (1, 3))


def test_elementary_matrices_unimodular():
    c = IetCombinatorics((1, 2, 3, 4), (4, 3, 2, 1))
    for move in ("t", "b"):
        _, loser, (b, t) = rauzy_step(c, move)
        cols = [[int(i == j) for i in range(4)] for j in range(4)]
        cols[loser - 1] = [x + y for x, y in zip(cols[b - 1], cols[t - 1])]
        # the identity plus one off-diagonal 1: determinant 1
        det = _det(cols)
        assert det in (1, -1)


def _det(mat):
    import itertools

    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def test_identity_composition():
    loop = RauzyLoop(IetCombinatorics((1, 2), (2, 1)), ("t", "b"))
    tw = compose_loop(loop, 0)
    assert tw.q == (1, 1)
    assert tw.words == ((1,), (2,))
    assert tw.matrix == ((1, 0), (0, 1))


def test_loop_must_close():
    with pytest.raises(ValueError):
        RauzyLoop(IetCombinatorics((1, 2, 3), (3, 2, 1)), ("t",))


def test_matrix_power_and_column_sums(built):
    t1 = compose_loop(built.loop, 1)
    for k in (1, 2, 3, 4):
        tk = compose_loop(built.loop, k)
        assert tk.matrix == mat_pow(t1.matrix, k)
        assert column_sums(tk.matrix) == tk.q
        # return-time composition: q2_j = sum_i A1[i][j] * q1_i
        if k == 2:
            expected = tuple(
                sum(t1.matrix[i][j] * t1.q[i] for i in range(built.tower.d))
                for j in range(built.tower.d)
            )
            assert tk.q == expected


def test_compose_loop_leaves_the_letter_counts_to_tower_system(golden):
    loop = RauzyLoop(golden.loop.start, golden.loop.steps)
    loop.period_matrix = mat_pow(loop.period_matrix, 2)  # no longer the matrix of its words
    with pytest.raises(ValueError, match="incidence matrix disagrees with word letter counts"):
        compose_loop(loop, 1)


def test_word_occurrence_counts(built):
    tw = built.tower
    for j in range(tw.d):
        for i in range(1, tw.d + 1):
            assert tw.words[j].count(i) == tw.matrix[i - 1][j]


def test_pf_lengths_basic():
    lengths = pf_lengths(((1, 1), (1, 1)))
    assert lengths.alpha == pytest.approx(2.0, abs=1e-12)
    assert lengths.lengths[0] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        pf_lengths(((1, 0), (0, 1)))


def test_pf_residual(built):
    lengths = pf_lengths(built.tower.matrix)
    v = lengths.lengths
    av = [
        sum(built.tower.matrix[i][j] * v[j] for j in range(len(v)))
        for i in range(len(v))
    ]
    resid = sum(abs(x - lengths.alpha * y) for x, y in zip(av, v))
    assert resid <= 1e-12 * lengths.alpha
    assert sum(v) == pytest.approx(1.0, abs=1e-12)


def test_golden_rotation_fibonacci_return_times():
    # two intervals with golden lengths: return times are Fibonacci numbers
    comb = IetCombinatorics((1, 2), (2, 1))
    loop = RauzyLoop(comb, ("t", "b"))
    lengths = pf_lengths(compose_loop(loop, 1).matrix)
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    for level in (1, 2, 3):
        q, _ = simulate_return_times(comb, lengths, level)
        assert q == (fib[2 * level], fib[2 * level + 1])


def test_simulation_level_zero(built):
    q, words = simulate_return_times(built.loop.start, built.lengths, 0)
    assert q == (1,) * built.tower.d
    assert words == tuple((j,) for j in range(1, built.tower.d + 1))


def test_simulation_matches_substitution(built):
    for level in (1, 2, 3):
        tw = compose_loop(built.loop, level)
        q, words = simulate_return_times(built.loop.start, built.lengths, level)
        assert q == tw.q
        assert words == tw.words


def test_simulation_alarm_on_perturbed_lengths(golden):
    # shifting one length by 1e-10 breaks self-similarity: the orbit must
    # land within the 1e-9 guard band of a discontinuity and trip the alarm
    from ietskew.iet import LengthData, SCALE

    pert = list(golden.lengths.lengths_scaled)
    pert[0] += SCALE // 10 ** 10
    bad = LengthData(
        tuple(x / SCALE for x in pert),
        golden.lengths.alpha,
        tuple(pert),
        golden.lengths.alpha_scaled,
    )
    with pytest.raises(PrecisionAlarm):
        simulate_return_times(golden.loop.start, bad, 2)


def test_float_orbit_frequencies(golden):
    towers = orbit_towers(golden.diagram)
    freqs = float_orbit_frequencies(golden.loop.start, golden.lengths, 200_000, towers)
    for f, l in zip(freqs, golden.lengths.lengths):
        assert f == pytest.approx(l, abs=5e-3)


def dict_orbit(comb, lengths, steps, x0=None):
    """The per-step dict/min/max orbit loop, kept as an oracle: the label
    visited at each step."""
    breaks = [0.0]
    for label in comb.top:
        breaks.append(breaks[-1] + lengths.lengths[label - 1])
    image_start = {}
    pos = 0.0
    for label in comb.bottom:
        image_start[label] = pos
        pos += lengths.lengths[label - 1]
    delta = {}
    pos = 0.0
    for label in comb.top:
        delta[label] = image_start[label] - pos
        pos += lengths.lengths[label - 1]
    by_position = list(comb.top)
    x = 0.3183098861837907 * breaks[-1] if x0 is None else x0
    labels = []
    for _ in range(steps):
        i = bisect_right(breaks, x) - 1
        i = min(max(i, 0), comb.d - 1)
        label = by_position[i]
        labels.append(label)
        x += delta[label]
        if x < 0.0:
            x = 0.0
        elif x >= breaks[-1]:
            x = breaks[-1] * (1.0 - 1e-16)
    return labels


def dict_orbit_frequencies(comb, lengths, steps, x0=None):
    labels = dict_orbit(comb, lengths, steps, x0)
    return tuple(labels.count(j) / steps for j in range(1, comb.d + 1))


def test_float_orbit_frequencies_equal_the_dict_loop(built):
    comb, lengths = built.loop.start, built.lengths
    towers = orbit_towers(built.diagram)
    breaks = [0.0]
    for label in comb.top:
        breaks.append(breaks[-1] + lengths.lengths[label - 1])
    # the default start at criterion 9's towers, over 200k steps
    assert float_orbit_frequencies(comb, lengths, 200_000, towers) == dict_orbit_frequencies(
        comb, lengths, 200_000
    )
    # points within 1e-12 of a breakpoint, one left of the interval and one right of it
    starts = [breaks[1] - 1e-12, breaks[-2] + 5e-13, -1.0, 1.5 * breaks[-1]]
    for x0 in starts:
        assert float_orbit_frequencies(comb, lengths, 50_000, towers, x0) == dict_orbit_frequencies(
            comb, lengths, 50_000, x0
        )


def test_orbit_steps_may_end_inside_the_first_block(built):
    comb, lengths = built.loop.start, built.lengths
    towers = orbit_towers(built.diagram)
    assert min(map(len, towers)) > 40
    for steps in (1, 2, 7, 40):
        assert float_orbit_frequencies(comb, lengths, steps, towers) == dict_orbit_frequencies(
            comb, lengths, steps
        )


def test_a_wrong_predictor_changes_no_frequency(built):
    # towers of other levels, each word rotated by one floor, the words
    # handed to the wrong labels, and every floor put in the first interval
    # (which agrees with the visits left of 0, so only the clamp test ends
    # those blocks): slower walks, the same orbit
    comb, lengths, diagram = built.loop.start, built.lengths, built.diagram
    wrong = [
        diagram.floor_sources(1),
        diagram.floor_sources(2),
        tuple(np.roll(w, 1) for w in orbit_towers(diagram)),
        diagram.floor_sources(2)[::-1],
        tuple(np.full_like(w, comb.top[0] - 1) for w in diagram.floor_sources(2)),
    ]
    for x0 in (None, -1.0, 1.5 * sum(lengths.lengths)):
        expected = dict_orbit_frequencies(comb, lengths, 1_000, x0)
        for towers in wrong:
            assert float_orbit_frequencies(comb, lengths, 1_000, towers, x0) == expected


def test_a_rotated_predictor_walks_as_the_loop_does(built):
    # criterion 9's towers, each word rotated by one floor: most floors
    # miss at once, the rest miss partway under a capped block
    comb, lengths = built.loop.start, built.lengths
    rotated = tuple(np.roll(w, 1) for w in orbit_towers(built.diagram))
    for x0 in (None, -1.0):
        expected = dict_orbit_frequencies(comb, lengths, 50_000, x0)
        assert float_orbit_frequencies(comb, lengths, 50_000, rotated, x0) == expected


@pytest.mark.parametrize("lengths", [(0.1, 0.7, 0.2), (0.1, 0.2, 0.3)])
def test_the_walk_rounds_as_the_loop_does_on_a_periodic_exchange(lengths):
    # a rational exchange's orbit runs through its breakpoints, where the
    # last bit of each sum picks the interval; its own itinerary, cut into
    # words, predicts it in long blocks
    comb = IetCombinatorics((1, 2, 3), (3, 2, 1))
    data = LengthData(lengths, 1.0, (0, 0, 0), 0)
    path = np.array(dict_orbit(comb, data, 5_000, 0.0)) - 1
    expected = dict_orbit_frequencies(comb, data, 5_000, 0.0)
    for height in (7, 100):
        towers = tuple(path[k:k + height] for k in range(3))
        assert float_orbit_frequencies(comb, data, 5_000, towers, 0.0) == expected
