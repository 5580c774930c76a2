import random
import types
from bisect import bisect_right
from itertools import product

import numpy as np
import pytest

from ietskew import iet
from ietskew.algebra import column_sums, mat_pow
from ietskew.iet import (
    SCALE,
    IetCombinatorics,
    LengthData,
    PrecisionAlarm,
    RauzyLoop,
    TowerSystem,
    compose_loop,
    float_orbit_frequencies,
    pf_lengths,
    rauzy_step,
    simulate_return_times,
)
from ietskew.verification import ORBIT_FLOORS, orbit_towers

import oracle_reference
from oracle_reference import reference_return_times


def test_combinatorics_validation():
    with pytest.raises(ValueError):
        IetCombinatorics((1,), (1,))
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2, 3), (1, 3, 2))  # prefix {1} fixed: reducible
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2), (1, 2))
    with pytest.raises(ValueError):
        IetCombinatorics((1, 2, 2), (2, 2, 1))


def test_combinatorics_refuse_more_letters_than_a_byte_holds():
    labels = tuple(range(1, 256))
    assert IetCombinatorics(labels, labels[::-1]).d == 255
    labels = tuple(range(1, 257))
    with pytest.raises(ValueError, match="256 intervals: return words hold one byte per letter, so at most 255"):
        IetCombinatorics(labels, labels[::-1])


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
    assert tw.words == (b"\x01", b"\x02")
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


def test_compose_loop_replays_the_moves_without_stepping(built, monkeypatch):
    # the loop walked its combinatorics once, when it was built
    expected = compose_loop(built.loop, 2)
    loop = RauzyLoop(built.loop.start, built.loop.steps)

    def refuse(*args):
        raise AssertionError("rauzy_step called by compose_loop")

    monkeypatch.setattr(iet, "rauzy_step", refuse)
    assert compose_loop(loop, 2) == expected


def test_return_words_are_bytes(built):
    for k in (0, 1, 2):
        for words in (compose_loop(built.loop, k).words, simulate_return_times(built.loop.start, built.lengths, k)[1]):
            assert type(words) is tuple and all(type(w) is bytes for w in words)
    tw = built.tower
    assert set(b"".join(tw.words)) == set(range(1, tw.d + 1))  # each byte is a label 1..d
    with pytest.raises(TypeError, match="return words must be bytes"):
        TowerSystem(tw.d, tw.matrix, tuple(map(tuple, tw.words)), tw.q)


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
    assert words == tuple(bytes((j,)) for j in range(1, built.tower.d + 1))


def test_simulation_matches_substitution(built):
    for level in (1, 2, 3):
        tw = compose_loop(built.loop, level)
        q, words = simulate_return_times(built.loop.start, built.lengths, level)
        assert q == tw.q
        assert words == tw.words


def oracle_outcome(simulate, comb, lengths, level, *predicted):
    """(q, words as tuples), or (exception type, message) of a simulation."""
    try:
        q, words = simulate(comb, lengths, level, *predicted)
    except RuntimeError as exc:  # PrecisionAlarm too
        return type(exc), str(exc)
    return q, tuple(map(tuple, words))


def predictors(comb, words):
    """Predicted words that the oracle must confirm or step past, by name."""
    d = comb.d
    return {
        "composed": words,
        "rotated": tuple(w[1:] + w[:1] for w in words),
        "one letter short": tuple(w[:-1] for w in words),
        "one letter long": tuple(w + w[:1] for w in words),
        "followed by the next label's word": tuple(w + v for w, v in zip(words, words[1:] + words[:1])),
        "handed to the wrong labels": words[1:] + words[:1],
        "every letter the first label": tuple(bytes([comb.top[0]]) * len(w) for w in words),
        "a letter 0": tuple(w[:-1] + bytes([0]) for w in words),
        "a letter d + 1": tuple(w[:-1] + bytes([d + 1]) for w in words),
        "too few words": words[:-1],
    }


def test_the_oracle_repeats_the_per_step_reference(built):
    # whatever the predictor, the outcome is the step loop's
    comb, lengths = built.loop.start, built.lengths
    for level in range(5):
        expected = oracle_outcome(reference_return_times, comb, lengths, level)
        assert expected[0] == compose_loop(built.loop, level).q
        assert oracle_outcome(simulate_return_times, comb, lengths, level) == expected
        for name, words in predictors(comb, compose_loop(built.loop, level).words).items():
            outcome = oracle_outcome(simulate_return_times, comb, lengths, level, words)
            assert outcome == expected, (level, name)


def test_the_composed_words_are_confirmed_without_stepping(built, monkeypatch):
    def refuse(*args):
        raise AssertionError("the step loop ran")

    monkeypatch.setattr(iet, "_step_loop", refuse)
    for level in (1, 2, 3, 4):
        tower = compose_loop(built.loop, level)
        assert simulate_return_times(built.loop.start, built.lengths, level, tower.words) == (tower.q, tower.words)


def test_the_float_screen_confirms_no_step_inside_the_alarm_band(built, monkeypatch):
    # KEANE_TOL one above the smallest gap past SNAP at a level: exactly one
    # step alarms, and its float gap may round to KEANE_TOL or above, which
    # only the float term of the screen's bound keeps from confirming it
    comb, lengths = built.loop.start, built.lengths
    gaps = []
    exact = iet._floor_step

    def recorded(u, w, breaks):
        u, i = exact(u, w, breaks)
        gaps.extend(g for g in (u - breaks[i], breaks[i + 1] - w - u) if g > iet.SNAP)
        return u, i

    for level in (1, 2, 3):
        gaps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(iet, "_floor_step", recorded)
            simulate_return_times(comb, lengths, level)
        with monkeypatch.context() as patch:
            for module in (iet, oracle_reference):
                patch.setattr(module, "KEANE_TOL", min(gaps) + 1)
            expected = oracle_outcome(reference_return_times, comb, lengths, level)
            assert expected == (PrecisionAlarm, "orbit within 1e-9 of a discontinuity")
            words = compose_loop(built.loop, level).words
            assert oracle_outcome(simulate_return_times, comb, lengths, level, words) == expected


@pytest.mark.parametrize("sign", [1, -1])
def test_the_oracle_repeats_the_reference_on_perturbed_lengths(built, sign):
    # shifts of 1e-6..1e-14 all raise an alarm; shifts of 1e-41..1e-44, below
    # SNAP, let some or all of the simulations complete
    base, completed, alarms = built.lengths, 0, 0
    composed = [compose_loop(built.loop, level).words for level in range(4)]
    for j, e in product(range(built.tower.d), [*range(6, 15), *range(41, 45)]):
        scaled = list(base.lengths_scaled)
        scaled[j] += sign * (SCALE // 10 ** e)
        lengths = LengthData(tuple(x / SCALE for x in scaled), base.alpha, tuple(scaled), base.alpha_scaled)
        for level in (1, 2, 3):
            expected = oracle_outcome(reference_return_times, built.loop.start, lengths, level)
            assert oracle_outcome(simulate_return_times, built.loop.start, lengths, level) == expected
            predicted = oracle_outcome(simulate_return_times, built.loop.start, lengths, level, composed[level])
            assert predicted == expected
            completed += isinstance(expected[0], tuple)  # q, not an exception type
            alarms += expected[0] is PrecisionAlarm
    assert completed and alarms


def test_the_oracle_stops_where_the_reference_does(built, monkeypatch):
    # the interval collapses at level 100; a horizon of 50 steps cuts level 3
    comb, lengths = built.loop.start, built.lengths
    words = compose_loop(built.loop, 3).words
    collapsed = (PrecisionAlarm, "level interval collapsed; scale exhausted")
    assert oracle_outcome(reference_return_times, comb, lengths, 100) == collapsed
    assert oracle_outcome(simulate_return_times, comb, lengths, 100) == collapsed
    assert oracle_outcome(simulate_return_times, comb, lengths, 100, words) == collapsed
    monkeypatch.setattr(iet, "HORIZON", 50)
    monkeypatch.setattr(oracle_reference, "HORIZON", 50)
    cut = (RuntimeError, "horizon exceeded simulating tower 1")
    assert oracle_outcome(reference_return_times, comb, lengths, 3) == cut
    assert oracle_outcome(simulate_return_times, comb, lengths, 3) == cut
    assert oracle_outcome(simulate_return_times, comb, lengths, 3, words) == cut


def test_a_confirmed_prefix_stops_at_the_horizon_as_the_step_loop_does(built, monkeypatch):
    # at q - 2 the tower's word is one step longer than the horizon allows,
    # at q - 1 it returns in exactly HORIZON + 1 steps
    comb, lengths = built.loop.start, built.lengths
    tower = compose_loop(built.loop, 2)
    for horizon in sorted({h for q in tower.q for h in (q - 2, q - 1, q)}):
        monkeypatch.setattr(iet, "HORIZON", horizon)
        monkeypatch.setattr(oracle_reference, "HORIZON", horizon)
        expected = oracle_outcome(reference_return_times, comb, lengths, 2)
        assert oracle_outcome(simulate_return_times, comb, lengths, 2) == expected
        assert oracle_outcome(simulate_return_times, comb, lengths, 2, tower.words) == expected


def test_simulation_alarm_on_perturbed_lengths(golden):
    # shifting one length by 1e-10 breaks self-similarity: the orbit must
    # land within the 1e-9 guard band of a discontinuity and trip the alarm
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


@pytest.mark.parametrize("steps", [0, -1])
def test_float_orbit_frequencies_refuse_fewer_than_one_step(golden, steps):
    with pytest.raises(ValueError, match="steps must be at least 1"):
        float_orbit_frequencies(golden.loop.start, golden.lengths, steps, orbit_towers(golden.diagram))


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
    # points within 1e-12 of a breakpoint, one left of the interval, one right
    # of it, NaN (the loop's last interval at every step) and the infinities
    starts = [breaks[1] - 1e-12, breaks[-2] + 5e-13, -1.0, 1.5 * breaks[-1], np.nan, np.inf, -np.inf]
    for x0 in starts:
        assert float_orbit_frequencies(comb, lengths, 50_000, towers, x0) == dict_orbit_frequencies(
            comb, lengths, 50_000, x0
        )


# criterion 9's 1 M-step visit counts, by label, before the towers were folded
ORBIT_COUNTS = {
    "golden_triple": (414215, 414210, 171575),
    "genus2_rank1": (241498, 241494, 439620, 77388),
    "genus2_rank2": (236068, 236068, 472136, 55728),
}


def count_folds(monkeypatch) -> list:
    """A list that grows by one at each ``np.add.accumulate`` call in ``iet``."""
    calls = []

    class Add:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def accumulate(self, *args, **kwargs):
            calls.append(None)
            return np.add.accumulate(*args, **kwargs)

    monkeypatch.setattr(iet, "np", types.SimpleNamespace(**{**vars(np), "add": Add()}))
    return calls


def test_the_true_towers_take_one_checked_block(built, monkeypatch):
    # the first start is mid-tower and takes the one checked block; every
    # later start is screened and its pass chained, and none is replayed, so
    # the only other folds are the set-up's, one per tower
    blocks = []
    checked = iet._checked_block
    monkeypatch.setattr(iet, "_checked_block", lambda *args: blocks.append(args[2]) or checked(*args))
    folds = count_folds(monkeypatch)
    towers = orbit_towers(built.diagram)
    freqs = float_orbit_frequencies(built.loop.start, built.lengths, 1_000_000, towers)
    assert len(blocks) == 1
    assert len(folds) == len(towers) + 1
    assert freqs == tuple(c / 1_000_000 for c in ORBIT_COUNTS[built.name])


# np.add.accumulate calls at 200k steps from the default start before the
# passes were chained: one per tower to set up, per block and per pass
UNCHAINED_FOLDS = {"golden_triple": 36, "genus2_rank1": 100, "genus2_rank2": 39}


def test_chains_that_all_replay_walk_as_the_loop_does(built, monkeypatch):
    # a per-pass slack of inf leaves no chained pass placeable, so each one
    # is replayed, a fold per pass as before the chain
    comb, lengths = built.loop.start, built.lengths
    walks = iet._walks

    def unplaceable(*args):
        breaks, shift, ws = walks(*args)
        return breaks, shift, [w._replace(slack=np.inf) for w in ws]

    monkeypatch.setattr(iet, "_walks", unplaceable)
    folds = count_folds(monkeypatch)
    freqs = float_orbit_frequencies(comb, lengths, 200_000, orbit_towers(built.diagram))
    assert freqs == dict_orbit_frequencies(comb, lengths, 200_000)
    assert len(folds) <= UNCHAINED_FOLDS[built.name]


def test_chains_whose_totals_err_by_their_slack_walk_as_the_loop_does(built, monkeypatch):
    # each total off by a quarter of the narrowest screen, and each slack
    # grown by as much: the bound alone keeps the chain on the loop's orbit,
    # replaying it every pass or two
    comb, lengths = built.loop.start, built.lengths
    towers = orbit_towers(built.diagram)
    walks = iet._walks(comb, lengths, towers)
    off = min(w.hi - w.lo for w in walks[2]) / 4
    wrong = [w._replace(total=w.total + (-1) ** n * off, slack=w.slack + off) for n, w in enumerate(walks[2])]
    monkeypatch.setattr(iet, "_walks", lambda *args: (*walks[:2], wrong))
    freqs = float_orbit_frequencies(comb, lengths, 1_000_000, towers)
    assert freqs == tuple(c / 1_000_000 for c in ORBIT_COUNTS[built.name])


def test_orbits_may_stop_partway_through_a_chained_pass(built):
    # random starts and random step counts: the last pass is cut short
    comb, lengths = built.loop.start, built.lengths
    towers = orbit_towers(built.diagram)
    rng = random.Random(7)
    for x0 in (None, rng.uniform(0.0, sum(lengths.lengths))):
        labels = np.array(dict_orbit(comb, lengths, 100_000, x0))
        for steps in sorted(rng.randrange(1, 100_001) for _ in range(10)):
            expected = tuple((labels[:steps] == j).sum() / steps for j in range(1, comb.d + 1))
            assert float_orbit_frequencies(comb, lengths, steps, towers, x0) == expected, (x0, steps)


def test_starts_at_the_screen_edges_and_floor_ends_walk_as_the_loop_does(built):
    # each screen's edges, the unscreened edges it was shrunk from (the
    # floor endpoints less the offsets below them), one ulp either side of
    # each, and floor left ends: folds, checked blocks and plain steps, over
    # the first tower and more
    comb, lengths = built.loop.start, built.lengths
    towers = orbit_towers(built.diagram)
    breaks, _, walks = iet._walks(comb, lengths, towers)
    assert len(walks) == comb.d and all(w.lo < w.hi for w in walks)
    ends = np.array(breaks)
    steps = max(map(len, towers)) + 100
    for w in walks:
        offsets = np.add.accumulate(w.fold)[:-1]
        assert ((ends[w.positions] - offsets).max() < w.lo) and (w.hi < (ends[w.positions + 1] - offsets).min())
        starts = [w.left[0], w.left[1], w.left[-1]]
        for edge, out in (
            (w.lo, -np.inf),
            (w.hi, np.inf),
            ((ends[w.positions] - offsets).max(), -np.inf),
            ((ends[w.positions + 1] - offsets).min(), np.inf),
        ):
            starts += [edge, np.nextafter(edge, out), np.nextafter(edge, -out)]
        for x0 in map(float, starts):
            assert float_orbit_frequencies(comb, lengths, steps, towers, x0) == dict_orbit_frequencies(
                comb, lengths, steps, x0
            ), x0


def test_a_checked_block_from_nan_keeps_one_step(golden):
    # the floor lookup finds no floor for a NaN, so only the block's own
    # test keeps a NaN from being counted along a whole tower
    comb, lengths = golden.loop.start, golden.lengths
    breaks, _, walks = iet._walks(comb, lengths, orbit_towers(golden.diagram))
    lo, hi = np.array(breaks[:-1]), np.array(breaks[1:])
    for walk in walks:
        kept, x = iet._checked_block(np.nan, walk, 0, len(walk.positions), lo, hi)
        assert kept == 1 and np.isnan(x)


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


def test_a_tower_with_an_empty_screen_is_walked_as_the_loop_does():
    # ORBIT_FLOORS floors of a rational exchange's itinerary from 0: the
    # float orbit runs through the breakpoints, so no start range of the
    # first tower survives the screen, and it is walked in checked blocks
    comb = IetCombinatorics((1, 2, 3), (3, 2, 1))
    data = LengthData((0.1, 0.7, 0.2), 1.0, (0, 0, 0), 0)
    steps = 2 * ORBIT_FLOORS
    path = np.array(dict_orbit(comb, data, steps, 0.0)) - 1
    towers = tuple(path[k:k + ORBIT_FLOORS] for k in range(3))
    first = iet._walks(comb, data, towers)[2][0]
    assert first.lo > first.hi
    assert float_orbit_frequencies(comb, data, steps, towers, 0.0) == dict_orbit_frequencies(comb, data, steps, 0.0)
