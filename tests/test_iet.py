from bisect import bisect_right

import pytest

from ietskew.algebra import column_sums, mat_pow, mat_vec
from ietskew.iet import (
    IetCombinatorics,
    PrecisionAlarm,
    RauzyLoop,
    compose_loop,
    float_orbit_frequencies,
    pf_lengths,
    rauzy_step,
    simulate_return_times,
)


def test_combinatorics_validation():
    with pytest.raises(ValueError):
        IetCombinatorics((1,), (1,))
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2, 3), (1, 3, 2))  # prefix {1} fixed: reducible
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2), (1, 2))
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2, 2), (2, 2, 1))


def test_rauzy_step_top_bottom():
    c = IetCombinatorics((1, 2, 3), (3, 2, 1))
    ct, rule_t = rauzy_step(c, "t")
    assert rule_t.winner == 3 and rule_t.loser == 1
    assert ct.top == (1, 2, 3) and ct.bottom == (3, 1, 2)
    assert rule_t.words == ((1, 3), (2,), (3,))
    cb, rule_b = rauzy_step(c, "b")
    assert rule_b.winner == 1 and rule_b.loser == 3
    assert cb.top == (1, 3, 2) and cb.bottom == (3, 2, 1)
    assert rule_b.words == ((1,), (2,), (1, 3))


def test_elementary_matrices_unimodular():
    c = IetCombinatorics((1, 2, 3, 4), (4, 3, 2, 1))
    for move in ("t", "b"):
        _, rule = rauzy_step(c, move)
        mat = rule.matrix(4)
        # triangular with unit diagonal up to permutation: determinant 1
        det = _det(mat)
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
    freqs = float_orbit_frequencies(golden.loop.start, golden.lengths, 200_000)
    for f, l in zip(freqs, golden.lengths.lengths):
        assert f == pytest.approx(l, abs=5e-3)


def dict_orbit_frequencies(comb, lengths, steps, x0=None):
    """The per-step dict/min/max orbit loop, kept as an oracle."""
    d = comb.d
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
    counts = [0] * d
    for _ in range(steps):
        i = bisect_right(breaks, x) - 1
        i = min(max(i, 0), d - 1)
        label = by_position[i]
        counts[label - 1] += 1
        x += delta[label]
        if x < 0.0:
            x = 0.0
        elif x >= breaks[-1]:
            x = breaks[-1] * (1.0 - 1e-16)
    return tuple(c / steps for c in counts)


def test_float_orbit_frequencies_equal_the_dict_loop(built):
    comb, lengths = built.loop.start, built.lengths
    breaks = [0.0]
    for label in comb.top:
        breaks.append(breaks[-1] + lengths.lengths[label - 1])
    # the default start, points within 1e-12 of a breakpoint, and one left of the interval
    starts = [None, breaks[1] - 1e-12, breaks[-2] + 5e-13, -1.0]
    for x0 in starts:
        assert float_orbit_frequencies(comb, lengths, 50_000, x0) == dict_orbit_frequencies(
            comb, lengths, 50_000, x0
        )
