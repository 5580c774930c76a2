"""Interval exchange combinatorics, Rauzy induction, towers and length data.

An exchange of d labelled intervals is described by a pair of orderings of
the labels 1..d: ``top`` lists the intervals left to right before the map is
applied, ``bottom`` after.  A loop in the Rauzy diagram composes elementary
induction steps into a tower system: for each label j a return word w_j over
the original labels, the return time q_j = len(w_j), and the incidence
matrix A with A[i][j] = occurrences of i in w_j (so column sums are return
times).

Induction step conventions.  A step is "t" (the rightmost top interval is
the longer one) or "b" (the rightmost bottom interval is).  In both cases
the loser's tower absorbs one pass through the winner's: the new one-step
word of the loser is (bottom-last, top-last) read on the combinatorics
before the step, and every other label keeps its singleton word.  This
convention is not forced by the matrix identities alone, so it is verified
against the direct simulation oracle ``simulate_return_times`` in the test
suite.

Lengths making a positive-matrix loop self-similar come from the
Perron-Frobenius eigenvector of A.  They are carried as integers scaled by
10**48 so that the simulation oracle can run levels deep while staying far
from the discontinuities it must avoid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    IntMatrix,
    column_sums,
    identity_matrix,
    is_positive,
    mat_mul,
    mat_pow,
    mat_vec,
    transpose,
    vec_add,
)

SCALE_DIGITS = 48
SCALE = 10 ** SCALE_DIGITS

# breakpoint-proximity alarm threshold (absolute, as a fraction of the interval)
KEANE_TOL = 10 ** (SCALE_DIGITS - 9)
# slack for structural coincidences of rounded endpoints
SNAP = 10 ** (SCALE_DIGITS - 40)
# power-iteration cap of pf_lengths, and steps per tower of the simulation
LENGTH_MAX_ITER = 20_000
HORIZON = 1_000_000


class PrecisionAlarm(RuntimeError):
    """Simulated orbit came too close to a discontinuity to trust."""


@dataclass(frozen=True)
class IetCombinatorics:
    """Labelled permutation pair for an exchange of d intervals."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        d = len(self.top)
        if d < 2:
            raise ValueError("need at least two intervals")
        labels = set(range(1, d + 1))
        if set(self.top) != labels or set(self.bottom) != labels:
            raise ValueError("top/bottom must both be orderings of 1..d")
        for k in range(1, d):
            if set(self.top[:k]) == set(self.bottom[:k]):
                raise ValueError(f"reducible combinatorics (prefix of size {k})")

    @property
    def d(self) -> int:
        return len(self.top)


def rauzy_step(comb: IetCombinatorics, move: str) -> tuple[IetCombinatorics, int, tuple[int, int]]:
    """Apply one Rauzy induction step ("t" = top wins, "b" = bottom wins).

    Returns the new combinatorics, the loser and its one-step pair
    (bottom-last, top-last): the loser's new word is the concatenation of
    the pair's two words, so its column of letter counts is the sum of
    their two columns, and every other word stays as it is.
    """
    if move not in ("t", "b"):
        raise ValueError(f"move must be 't' or 'b', got {move!r}")
    top, bottom = comb.top, comb.bottom
    alpha_t, alpha_b = top[-1], bottom[-1]
    if move == "t":
        winner, loser = alpha_t, alpha_b
        new_bottom = list(bottom[:-1])
        new_bottom.insert(new_bottom.index(winner) + 1, loser)
        new_comb = IetCombinatorics(top, tuple(new_bottom))
    else:
        winner, loser = alpha_b, alpha_t
        new_top = list(top[:-1])
        new_top.insert(new_top.index(winner) + 1, loser)
        new_comb = IetCombinatorics(tuple(new_top), bottom)
    return new_comb, loser, (alpha_b, alpha_t)


class RauzyLoop:
    """A loop in the Rauzy diagram, amplified until its matrix is positive.

    ``steps`` is the raw move sequence; the working period is that sequence
    repeated ``amplification`` times, the smallest power making the composed
    matrix strictly positive (capped at 2*d*d, past which the loop is
    rejected as unsuitable).
    """

    def __init__(self, start: IetCombinatorics, steps: tuple[str, ...] | list[str]):
        self.start = start
        self.steps = tuple(steps)
        if not self.steps:
            raise ValueError("empty move sequence is not a loop")
        comb = start
        cols = list(identity_matrix(start.d))  # letter counts of each word, by column
        for move in self.steps:
            comb, loser, (b, t) = rauzy_step(comb, move)
            cols[loser - 1] = vec_add(cols[b - 1], cols[t - 1])
        if comb != start:
            raise ValueError("move sequence does not return to its starting combinatorics")
        power = mat = transpose(cols)
        amp = 1
        cap = 2 * start.d * start.d
        while not is_positive(power):
            amp += 1
            if amp > cap:
                raise ValueError(
                    f"loop matrix not positive after {cap} repetitions; unsuitable loop"
                )
            power = mat_mul(power, mat)
        self.amplification = amp
        self.period_steps = self.steps * amp
        self.period_matrix = power

    @property
    def d(self) -> int:
        return self.start.d


@dataclass(frozen=True)
class TowerSystem:
    """Return words, return times and incidence matrix for a composed loop."""

    d: int
    matrix: IntMatrix
    words: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]

    def __post_init__(self):
        if self.q != tuple(len(w) for w in self.words):
            raise ValueError("return times disagree with word lengths")
        if letter_counts(self.words) != self.matrix:
            raise ValueError("incidence matrix disagrees with word letter counts")
        if column_sums(self.matrix) != self.q:
            raise ValueError("column sums disagree with return times")


def letter_counts(words) -> IntMatrix:
    """The matrix whose entry (i, j) counts the letter i + 1 in words[j]."""
    return tuple(tuple(w.count(i) for w in words) for i in range(1, len(words) + 1))


def compose_loop(loop: RauzyLoop, repeat: int = 1) -> TowerSystem:
    """Tower system for the (amplified) loop traversed ``repeat`` times.

    ``repeat = 0`` gives the identity system (w_j = (j), A = I).  Each step
    sets the loser's word to the concatenation of its pair's two words, the
    same rule by which ``RauzyLoop`` sums two columns, so the letter counts
    must equal the ``repeat``-th power of the one-period matrix, which
    ``TowerSystem`` checks.
    """
    if repeat < 0:
        raise ValueError("repeat must be nonnegative")
    d = loop.d
    words: list[tuple[int, ...]] = [(j,) for j in range(1, d + 1)]
    comb = loop.start
    for move in loop.period_steps * repeat:
        comb, loser, (b, t) = rauzy_step(comb, move)
        words[loser - 1] = words[b - 1] + words[t - 1]
    return TowerSystem(d, mat_pow(loop.period_matrix, repeat), tuple(words), tuple(map(len, words)))


@dataclass(frozen=True)
class LengthData:
    """Perron-Frobenius lengths of a positive incidence matrix.

    ``lengths``/``alpha`` are float views; ``lengths_scaled``/``alpha_scaled``
    hold the same data as integers times ``SCALE`` for exact simulation.
    """

    lengths: tuple[float, ...]
    alpha: float
    lengths_scaled: tuple[int, ...] = field(repr=False)
    alpha_scaled: int = field(repr=False)


def pf_lengths(a: IntMatrix) -> LengthData:
    """Leading eigenvector of a strictly positive integer matrix.

    Power iteration in scaled-integer arithmetic (48 decimal digits); the
    result is L1-normalised and satisfies |A v - alpha v|_1 <= 1e-12 * alpha.
    """
    if not is_positive(a):
        raise ValueError("matrix must be strictly positive for Perron-Frobenius lengths")
    d = len(a)
    v = [SCALE // d] * d
    for _ in range(LENGTH_MAX_ITER):
        u = mat_vec(a, v)
        tot = sum(u)
        v_new = [x * SCALE // tot for x in u]
        if all(abs(x - y) <= 2 for x, y in zip(v, v_new)):
            v = v_new
            break
        v = v_new
    av = mat_vec(a, v)
    alpha_scaled = sum(av) * SCALE // sum(v)
    residual = sum(abs(x * SCALE - alpha_scaled * y) for x, y in zip(av, v))
    # residual is in units of SCALE^2; compare against 1e-12 * alpha * SCALE^2
    if residual * 10 ** 12 > alpha_scaled * SCALE:
        raise ArithmeticError("power iteration failed to reach requested residual")
    lengths = tuple(x / SCALE for x in v)
    return LengthData(lengths, alpha_scaled / SCALE, tuple(v), alpha_scaled)


def _positions(comb: IetCombinatorics, lengths: tuple[int, ...] | tuple[float, ...]):
    """Domain/image left endpoints per label plus sorted domain breakpoints, each
    a left fold of the lengths before it: scaled ints (the exact oracle) or
    floats (the float orbit), added in int or IEEE arithmetic as they are."""
    start: dict[int, int | float] = {}
    pos = 0
    for label in comb.top:
        start[label] = pos
        pos += lengths[label - 1]
    total = pos
    image: dict[int, int | float] = {}
    pos = 0
    for label in comb.bottom:
        image[label] = pos
        pos += lengths[label - 1]
    breaks = sorted(start.values()) + [total]
    by_position = sorted(start, key=start.get)
    return start, image, breaks, by_position, total


def simulate_return_times(
    comb: IetCombinatorics,
    lengths: LengthData,
    level: int,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Directly simulate first returns to the level-``level`` induction interval.

    The exchanged interval self-reproduces under induction with ratio
    1/alpha, so the level-k bases are the original intervals scaled by
    alpha**-k.  Tracking each base as an exact translated block yields the
    return time q_j and the sequence of original labels its floors visit.
    Raises PrecisionAlarm when an orbit endpoint lands within 1e-9 of a
    discontinuity (other than the structural coincidences of the tower).
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    d = comb.d
    scaled = lengths.lengths_scaled
    start, image, breaks, by_position, total = _positions(comb, scaled)
    if level == 0:
        return (1,) * d, tuple((j,) for j in range(1, d + 1))

    delta = {label: image[label] - start[label] for label in start}
    shrink_num = SCALE ** level
    shrink_den = lengths.alpha_scaled ** level

    def level_pos(x: int) -> int:
        return x * shrink_num // shrink_den

    base_total = level_pos(total)
    cuts = [level_pos(start[label]) for label in comb.top] + [base_total]

    q_out: list[int] = []
    words_out: list[tuple[int, ...]] = []
    for idx, label in enumerate(comb.top):
        u = cuts[idx]
        w = cuts[idx + 1] - cuts[idx]
        if w <= 0:
            raise PrecisionAlarm("level interval collapsed; scale exhausted")
        word: list[int] = []
        steps = 0
        while True:
            if steps >= 1 and u + w <= base_total + SNAP:
                break
            if steps > HORIZON:
                raise RuntimeError(f"horizon exceeded simulating tower {label}")
            i = bisect_right(breaks, u) - 1
            for t in (i, i + 1):
                if 0 <= t < len(breaks) and abs(u - breaks[t]) <= SNAP:
                    u = breaks[t]
                    i = t if t < len(breaks) - 1 else i
                    break
            if i < 0 or i >= d:
                raise PrecisionAlarm("orbit left the exchanged interval")
            right = breaks[i + 1]
            if u + w > right + SNAP:
                raise PrecisionAlarm("discontinuity inside a simulated floor")
            gap_left = u - breaks[i]
            gap_right = right - (u + w)
            if SNAP < gap_left < KEANE_TOL or SNAP < gap_right < KEANE_TOL:
                raise PrecisionAlarm("orbit within 1e-9 of a discontinuity")
            visited = by_position[i]
            word.append(visited)
            u += delta[visited]
            steps += 1
        q_out.append(steps)
        words_out.append(tuple(word))
    # towers are reported in label order, not domain-position order
    order = {label: k for k, label in enumerate(comb.top)}
    q_by_label = tuple(q_out[order[j]] for j in range(1, d + 1))
    words_by_label = tuple(words_out[order[j]] for j in range(1, d + 1))
    return q_by_label, words_by_label


def float_orbit_frequencies(
    comb: IetCombinatorics,
    lengths: LengthData,
    steps: int,
    towers: tuple[np.ndarray, ...],
    x0: float | None = None,
) -> tuple[float, ...]:
    """Visit frequencies of a plain float orbit to each labelled interval.

    The orbit is x <- x + shift(interval of x), clamped back into [0, end)
    after each step.  ``towers`` predicts it: per label, the 0-based labels its
    floors visit bottom to top (``BratteliDiagram.floor_sources``).  Each
    floor gets a float left endpoint, its tower's base scaled so that the
    floors cover [0, end).  From the floor under x, the rest of its word is
    the predicted block; ``np.add.accumulate`` walks it as the same left fold
    of IEEE additions that a step-by-step loop makes, and the block is kept
    up to the first step whose interval differs from the prediction or whose
    point left [0, end).  A floor whose label is not x's own is one plain
    step, and no block is built.  A block that misses partway caps the next
    at 1024 floors, about what the fixed numpy cost of a block buys, so a
    wrong predictor wastes a bounded amount per miss; each block kept whole
    doubles the cap, so the true towers are walked in whole towers.  The
    predictor sets only the speed: the frequencies are those of the
    step-by-step loop, bit for bit, whatever ``towers`` holds.
    """
    d = comb.d
    start, image, breaks, _, end = _positions(comb, lengths.lengths)
    shift = np.array([image[label] - start[label] for label in comb.top])  # by domain position
    interior = np.array(breaks[1:-1])
    position = np.argsort(np.array(comb.top) - 1)  # domain position of each 0-based label

    # every floor in tower order: its domain position, the end of its tower,
    # and its float left endpoint, the base's plus the shifts below it
    heights = [len(w) for w in towers]
    seq = position[np.concatenate(towers)]
    stop = np.repeat(np.cumsum(heights), heights)
    base = np.array(breaks)[position] * (end / float(np.dot(heights, lengths.lengths)))
    left = np.concatenate(
        [np.add.accumulate(np.append(b, shift[position[w[:-1]]])) for b, w in zip(base, towers)]
    )
    order = np.argsort(left)
    sorted_left, seq_shift = left[order], shift[seq]

    # default start: a generic point (1/pi of the interval), kept away from
    # the algebraic breakpoint data of the packaged instances
    x = 0.3183098861837907 * end if x0 is None else x0
    counts = np.zeros(d, dtype=np.int64)  # visits per domain position
    bounds, lefts, shifts = interior.tolist(), sorted_left.tolist(), shift.tolist()
    done, cap = 0, len(seq)  # most floors of the next block
    while done < steps:
        i = bisect_right(bounds, x)  # x's domain position; points outside [0, end) clamp to an end
        f = order[max(bisect_right(lefts, x) - 1, 0)]
        if seq[f] != i:  # a miss at once: one plain step
            counts[i] += 1
            x += shifts[i]
            kept = 1
        else:
            n = min(stop[f] - f, steps - done, cap)
            xs = np.empty(n + 1)
            xs[0] = x
            xs[1:] = seq_shift[f:f + n]
            np.add.accumulate(xs, out=xs)
            missed = np.searchsorted(interior, xs[:-1], side="right") != seq[f:f + n]
            missed[1:] |= (xs[1:-1] < 0.0) | (xs[1:-1] >= end)  # a clamp ends the block
            kept = int(missed.argmax()) if missed.any() else n  # at least 1: step 0 is x's own
            counts += np.bincount(seq[f:f + kept], minlength=d)
            x = float(xs[kept])
            cap = cap * 2 if kept == n else 1024
        if x < 0.0:
            x = 0.0
        elif x >= end:
            x = end * (1.0 - 1e-16)
        done += kept
    return tuple(c / steps for _, c in sorted(zip(comb.top, counts.tolist())))
