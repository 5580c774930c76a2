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
suite.  The composed words are the return words of the induced map, so
they predict the oracle step for step: it confirms a predicted word in
bulk, with a float screen under a stated error bound and exact steps where
the screen cannot decide, and steps one floor at a time through any tower
whose word it cannot confirm, so the predictor sets only the speed.

A return word is held as ``bytes``, one byte per letter, so d is at most
255: concatenation is a copy of bytes, and ``bytes.count`` reads the letter
counts.

Lengths making a positive-matrix loop self-similar come from the
Perron-Frobenius eigenvector of A.  They are carried as integers scaled by
10**48 so that the simulation oracle can run levels deep while staying far
from the discontinuities it must avoid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

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
        if d > 255:
            raise ValueError(f"{d} intervals: return words hold one byte per letter, so at most 255")
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
    rejected as unsuitable).  The combinatorics are walked once, here:
    ``period_moves`` holds each step of the period as (loser, b, t), the
    loser and its one-step pair, which is all that ``compose_loop`` replays.
    """

    def __init__(self, start: IetCombinatorics, steps: tuple[str, ...] | list[str]):
        self.start = start
        self.steps = tuple(steps)
        if not self.steps:
            raise ValueError("empty move sequence is not a loop")
        comb = start
        cols = list(identity_matrix(start.d))  # letter counts of each word, by column
        moves = []
        for move in self.steps:
            comb, loser, (b, t) = rauzy_step(comb, move)
            cols[loser - 1] = vec_add(cols[b - 1], cols[t - 1])
            moves.append((loser, b, t))
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
        self.period_moves = tuple(moves) * amp
        self.period_matrix = power

    @property
    def d(self) -> int:
        return self.start.d


@dataclass(frozen=True)
class TowerSystem:
    """Return words, return times and incidence matrix for a composed loop.

    ``words[j - 1]`` is the return word of label j: the labels its floors
    visit, bottom to top, one byte each (``word[n]`` is an int label).
    """

    d: int
    matrix: IntMatrix
    words: tuple[bytes, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        if not all(type(w) is bytes for w in self.words):
            raise TypeError("return words must be bytes, one byte per letter")
        if self.q != tuple(len(w) for w in self.words):
            raise ValueError("return times disagree with word lengths")
        if letter_counts(self.words) != self.matrix:
            raise ValueError("incidence matrix disagrees with word letter counts")
        if column_sums(self.matrix) != self.q:
            raise ValueError("column sums disagree with return times")


def letter_counts(words) -> IntMatrix:
    """The matrix whose entry (i, j) counts the letter i + 1 in words[j]
    (``bytes.count`` of an int letter)."""
    return tuple(tuple(w.count(i) for w in words) for i in range(1, len(words) + 1))


def compose_loop(loop: RauzyLoop, repeat: int = 1) -> TowerSystem:
    """Tower system for the (amplified) loop traversed ``repeat`` times.

    ``repeat = 0`` gives the identity system (w_j = bytes((j,)), A = I).
    Each (loser, b, t) of ``loop.period_moves`` sets the loser's word to the
    concatenation of the byte strings b and t, the same rule by which ``RauzyLoop``
    summed two columns when it walked the steps, so the letter counts must
    equal the ``repeat``-th power of the one-period matrix, which
    ``TowerSystem`` checks.  No combinatorics are built here.
    """
    if repeat < 0:
        raise ValueError("repeat must be nonnegative")
    d = loop.d
    words = [bytes((j,)) for j in range(1, d + 1)]
    for loser, b, t in loop.period_moves * repeat:
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


def _floor_step(u: int, w: int, breaks: list[int]) -> tuple[int, int]:
    """One step of the exact orbit: the floor [u, u + w) lies in the
    interval of domain position i = bisect_right(breaks, u) - 1, so
    u - breaks[i] >= 0 and breaks[i + 1] - u > 0.  A left end within SNAP
    of either endpoint snaps onto it; snapping up to the right end of the
    last interval keeps i, and the floor then overhangs it.  gap_left and
    gap_right are the floor's distances to the ends of its interval;
    gap_right below -SNAP is a discontinuity inside the floor, and a gap
    between SNAP and KEANE_TOL is too close to one.  Returns the snapped u
    and i, or raises PrecisionAlarm."""
    d = len(breaks) - 1
    i = bisect_right(breaks, u) - 1
    if i < 0 and -u <= SNAP:  # within SNAP left of 0: onto 0
        u, i = 0, 0
    if not 0 <= i < d:
        raise PrecisionAlarm("orbit left the exchanged interval")
    gap_left, gap_right = u - breaks[i], breaks[i + 1] - w - u
    if gap_left <= SNAP:
        u = breaks[i]
        gap_left, gap_right = 0, breaks[i + 1] - w - u
    elif gap_right <= SNAP - w:
        u = breaks[i + 1]
        if i + 1 < d:
            i += 1
            gap_left, gap_right = 0, breaks[i + 1] - w - u
        else:
            gap_left, gap_right = u - breaks[i], -w
    if gap_right < -SNAP:
        raise PrecisionAlarm("discontinuity inside a simulated floor")
    if SNAP < gap_left < KEANE_TOL or SNAP < gap_right < KEANE_TOL:
        raise PrecisionAlarm("orbit within 1e-9 of a discontinuity")
    return u, i


def _step_loop(u: int, w: int, limit: int, breaks: list[int], shift: list[int], label: int) -> bytearray:
    """The domain positions the floor [u, u + w) visits until it is back in
    the base (u <= limit), one ``_floor_step`` each; raises RuntimeError
    past HORIZON steps."""
    positions = bytearray()
    steps = 0
    while not (steps and u <= limit):
        if steps > HORIZON:
            raise RuntimeError(f"horizon exceeded simulating tower {label}")
        u, i = _floor_step(u, w, breaks)
        positions.append(i)
        u += shift[i]
        steps += 1
    return positions


def _confirmed(seq: bytes, u: int, w: int, limit: int, breaks: list[int], shift: list[int], label: int) -> bool:
    """Whether ``_step_loop`` from u would visit the domain positions
    ``seq``, all of them in [0, d), and return after the last; raises the
    step loop's RuntimeError where the first HORIZON + 1 of them are its
    first steps and it is not back after them.  See
    ``simulate_return_times`` for the float screen and its bound."""
    d = len(shift)
    p = np.frombuffer(seq, dtype=np.uint8)
    if not len(p) or p.max() >= d:  # an empty word, or a letter outside 1..d
        return False
    cut = HORIZON + 1  # the most steps the step loop takes
    long = len(p) > cut
    if long:
        seq, p = seq[:cut], p[:cut]
    n, total = len(p), breaks[-1]
    x = np.empty(n)
    x[0] = float(u)
    x[1:] = np.array(shift, dtype=float)[p[:-1]]
    np.add.accumulate(x, out=x)
    bound = (2 * n + 8) * 2.0 ** -53 * float(total) + (n + 1) * SNAP
    lo = np.array(breaks[:-1], dtype=float)[p]
    hi = np.array([b - w for b in breaks[1:]], dtype=float)[p]
    sure = (x - lo >= KEANE_TOL + bound) & (hi - x >= KEANE_TOL + bound)
    sure[1:] &= x[1:] > float(limit) + bound
    v, done = u, 0  # the exact position before step ``done``
    for j in np.flatnonzero(~sure).tolist():
        v += sum(c * s for c, s in zip(np.bincount(p[done:j], minlength=d).tolist(), shift))
        if j and v <= limit:
            return False
        try:
            v, i = _floor_step(v, w, breaks)
        except PrecisionAlarm:
            return False
        if i != seq[j]:
            return False
        done = j
    end = v + sum(c * s for c, s in zip(np.bincount(p[done:], minlength=d).tolist(), shift))
    if not long:
        return end <= limit
    if end <= limit:
        return False
    raise RuntimeError(f"horizon exceeded simulating tower {label}")


def simulate_return_times(
    comb: IetCombinatorics,
    lengths: LengthData,
    level: int,
    predicted: tuple[bytes, ...] | None = None,
) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """Directly simulate first returns to the level-``level`` induction interval.

    The exchanged interval self-reproduces under induction with ratio
    1/alpha, so the level-k bases are the original intervals scaled by
    alpha**-k.  Tracking each base as an exact translated block yields the
    return time q_j and its return word: the original labels its floors
    visit, one byte each, as ``TowerSystem`` holds them.  Raises
    PrecisionAlarm when an orbit endpoint lands within 1e-9 of a
    discontinuity (other than the structural coincidences of the tower).

    The step loop (``_step_loop``) walks a tower one ``_floor_step`` at a
    time: bisect, snap, the three alarms.  ``predicted`` holds one word per
    label, as ``TowerSystem.words`` holds them, and sets only the speed:
    each tower first tries to confirm its predicted word in bulk, and a
    tower not confirmed runs the step loop from its start, so every word,
    q, exception and message is the step loop's, in the same order.  With
    ``predicted=None``, a wrong number of words, an empty word or a letter
    outside 1..d, the tower takes the step loop.

    Confirming a word of n steps from the base's left end u_0.  Let T be
    ``total`` and eps = 2**-53.  The float position x_j before step j is a
    sequential left fold of float64 shifts from float(u_0).  Write y_j for
    the exact sum u_0 + the shifts of the steps before j, and u_j for the
    step loop's position, which also carries the snaps: each moves it by at
    most SNAP, so |u_j - y_j| <= j SNAP.  While the predicted steps are the
    step loop's, every exact position lies in [0, T), so float(u_0) and
    each float shift err by at most eps T and each addition rounds by at
    most eps T (to first order): |x_j - y_j| <= (2j + 1) eps T.  A float gap
    to an end of the predicted interval adds one conversion of that end and
    one subtraction, so it is within (2j + 3) eps T + j SNAP of the exact
    gap at u_j; the float comparison with ``limit`` adds one conversion and
    one addition.  With j < n, all of these lie within

        E = (2n + 8) eps T + (n + 1) SNAP,

    the slack covering the rounding of E itself and the second-order
    terms.  A step is confirmed in float when its float gaps to both ends
    of the predicted interval are at least KEANE_TOL + E and, for
    1 <= j < n, x_j > limit + E: its exact gaps are then at least KEANE_TOL,
    so it snaps nothing, raises nothing, bisects to the predicted interval
    and is not yet back.  Every other step runs ``_floor_step`` on its exact
    position, u_0 plus the per-letter counts before it times the exact
    shifts plus the snap drift so far, and must not be back (j >= 1), must
    raise nothing and must land in the predicted interval.  The word is
    confirmed when every step is and the exact position after it is
    <= limit.  By induction on the first step the float screen would get
    wrong, none is wrong in a confirmed word.  A word longer than
    HORIZON + 1 steps has its first HORIZON + 1 confirmed the same way and
    the position after them above ``limit``; it then raises the step
    loop's ``horizon exceeded``.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    d = comb.d
    start, image, breaks, by_position, total = _positions(comb, lengths.lengths_scaled)
    if level == 0:
        return (1,) * d, tuple(bytes((j,)) for j in range(1, d + 1))
    shift = [image[label] - start[label] for label in by_position]  # by domain position
    to_label = bytes(by_position).ljust(256, b"\0")  # domain position -> label, a translate table
    to_position = bytearray(b"\xff" * 256)  # label -> domain position, 255 for no label
    for i, label in enumerate(by_position):
        to_position[label] = i
    if predicted is not None and len(predicted) != d:
        predicted = None
    shrink_num = SCALE ** level
    shrink_den = lengths.alpha_scaled ** level

    def level_pos(x: int) -> int:
        return x * shrink_num // shrink_den

    base_total = level_pos(total)
    cuts = [level_pos(start[label]) for label in comb.top] + [base_total]

    q_out: list[int] = []
    words_out: list[bytes] = []
    for idx, label in enumerate(comb.top):
        u = cuts[idx]
        w = cuts[idx + 1] - cuts[idx]
        if w <= 0:
            raise PrecisionAlarm("level interval collapsed; scale exhausted")
        limit = base_total + SNAP - w  # the floor [u, u + w) is back in the base once u <= limit
        word = None if predicted is None else predicted[label - 1]
        if word is None or not _confirmed(word.translate(to_position), u, w, limit, breaks, shift, label):
            word = bytes(_step_loop(u, w, limit, breaks, shift, label).translate(to_label))
        q_out.append(len(word))
        words_out.append(word)
    # towers are reported in label order, not domain-position order
    order = {label: k for k, label in enumerate(comb.top)}
    q_by_label = tuple(q_out[order[j]] for j in range(1, d + 1))
    words_by_label = tuple(words_out[order[j]] for j in range(1, d + 1))
    return q_by_label, words_by_label


class _Walk(NamedTuple):
    """One predicted tower of the float orbit: its floors' domain positions,
    its fold buffer (a free slot for the start, then its floors' shifts),
    its floors' float left ends, its visits per domain position, its
    screened start range [lo, hi], empty when lo > hi, its total offset
    O_h, and the growth of a chain's error bound per pass through it."""

    positions: np.ndarray
    fold: np.ndarray
    left: np.ndarray
    row: np.ndarray
    lo: float
    hi: float
    total: float
    slack: float


def _walks(comb: IetCombinatorics, lengths: LengthData, towers: tuple[np.ndarray, ...]):
    """The breaks, the shifts by domain position and the ``_Walk`` of each
    nonempty tower of ``towers``; see ``float_orbit_frequencies`` for the
    screen and its bound."""
    start, image, breaks, _, end = _positions(comb, lengths.lengths)
    shift = np.array([image[label] - start[label] for label in comb.top])  # by domain position
    position = np.argsort(np.array(comb.top) - 1)  # domain position of each 0-based label
    ends = np.array(breaks)
    scale = end / float(np.dot([len(w) for w in towers], lengths.lengths))
    reach = end + float(np.abs(shift).max())  # end + s_max
    walks = []
    for b, w in zip(ends[position] * scale, towers):
        p = position[w]
        h = len(p)
        if not h:
            continue
        fold = np.empty(h + 1)
        fold[0] = 0.0
        fold[1:] = shift[p]
        folded = np.add.accumulate(fold)  # O_0..O_h, the fold of the shifts below each floor from 0
        offsets = folded[:h]
        e = (h + 4) * 2.0 ** -53 * (reach + float(np.abs(offsets).max()))
        lo = float((ends[p] - offsets).max() + e)
        hi = float((ends[p + 1] - offsets).min() - e)
        slack = (h + 8) * 2.0 ** -53 * (reach + float(np.abs(folded).max()))
        walks.append(_Walk(p, fold, b + offsets, np.bincount(p, minlength=comb.d), lo, hi, float(folded[h]), slack))
    return breaks, shift, walks


def _floor(x: float, walks: list[_Walk]) -> tuple[_Walk | None, int]:
    """The walk and the index of the floor whose left end is the last at or
    below x, or (None, 0) where there is none (x below every floor, or NaN)."""
    found, best = (None, 0), -np.inf
    for walk in walks:
        f = int(np.where(walk.left <= x, walk.left, -np.inf).argmax())
        if best < walk.left[f] <= x:
            found, best = (walk, f), walk.left[f]
    return found


def _checked_block(x: float, walk: _Walk, f: int, budget: int, lo: np.ndarray, hi: np.ndarray) -> tuple[int, float]:
    """The steps kept, and the point after them, of the fold from x along
    at most ``budget`` floors of ``walk`` from floor f: up to the first point
    after x that is not confirmed inside its floor's interval [lo[i], hi[i])
    (a NaN is not), or the top of the tower."""
    p = walk.positions[f:f + budget]
    n = len(p)
    xs = np.empty(n + 1)
    xs[0] = x
    xs[1:] = walk.fold[f + 1:f + n + 1]
    np.add.accumulate(xs, out=xs)
    point, q = xs[1:n], p[1:]
    inside = (point >= lo[q]) & (point < hi[q])
    kept = n if inside.all() else 1 + int(inside.argmin())
    return kept, float(xs[kept])


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
    floors visit bottom to top (``BratteliDiagram.floor_sources``).  The
    predictor sets only the speed: the frequencies are those of the
    step-by-step loop, bit for bit, whatever ``towers`` holds.

    A start x inside a tower's screened range [lo, hi] takes the whole
    tower, a pass: the loop's steps are the left fold of IEEE additions of
    its shifts from x, one ``np.add.accumulate``, and the tower's visit row
    is added once.  Passes are chained (below), so most are never folded.
    Every other start looks up its floor, the one whose float
    left end (the base's, scaled so that the floors cover [0, end), plus
    the shifts below it) is the last at or below x.  If that floor's
    interval is x's own, the rest of its tower is a checked block
    (``_checked_block``), kept up to the first point outside its predicted
    interval, a test that also ends the block where a point leaves
    [0, end) or is NaN; step 0 is not tested, as bisection placed x,
    clamping an x outside [0, end) to an end interval.  Otherwise x takes
    one plain step.  A lookup whose block kept fewer than 32 steps is
    followed by plain steps, 1, 2, 4, ... of them after successive such
    lookups and 1 again once a block keeps more, so a wrong predictor
    pays numpy's fixed cost per block a logarithmic number of times.

    The screen.  Let u = 2**-53, let the tower's floors lie in the domain
    positions p_0..p_{h-1} with shifts s_k, let S_k be the exact sum of
    s_0..s_{k-1} and b_i the breaks.  The fold from x gives x_0 = x and
    x_{k+1} = fl(x_k + s_k); the loop takes the same steps, and clamps
    nothing, as long as b_{p_k} <= x_k < b_{p_k + 1} for every k < h.  While
    that holds up to k - 1, each x_j lies in [0, end), so each addition errs
    by at most u |x_j + s_j| <= u (end + s_max) (the standard model and
    the bound for recursive summation: Higham, Accuracy and Stability of
    Numerical Algorithms, sections 2.2 and 4.2) and
    |x_k - (x + S_k)| <= k u (end + s_max).  The set-up folds the same
    shifts from 0 into O_k; each addition errs by at most u times its
    result, so |O_k - S_k| <= k u M with M = max |O_k|.  The float edges
    c_k = fl(b_{p_k} - O_k) and fl(b_{p_k + 1} - O_k) err by at most
    u (end + M), and lo = fl(max c_k + e) by at most u (end + M + e), and
    hi likewise.  So x >= lo gives x_k >= b_{p_k} and x <= hi gives
    x_k < b_{p_k + 1} for every k < h once

        e (1 - u) > (h + 1 + u) u (end + s_max + M),

    which e = (h + 4) u (end + s_max + M) meets with room to spare for the
    rounding of e itself.  A screen holds for every prefix of its tower, so
    the orbit's last tower may stop partway.  As lo >= fl(b_{p_0} + e) > 0
    and hi <= fl(b_{p_0 + 1} - e) < end, a screened start is never clamped.

    The chain.  Only the point after a pass decides what comes next, so the
    loop keeps x, the loop's exact point before the passes not yet folded,
    an approximate point x~ after them, and a bound E on |x~ - x'|, where x'
    is the loop's point after them.  While the float ends of
    [x~ - E, x~ + E] lie in one screened range, the one that bisection picks
    for both, x' lies there too and bisects to the same tower: the pass is
    taken as x~ <- fl(x~ + O_h), with no fold, and counted; each tower's
    visit row is added once at the end, times its passes.  A pass that the
    steps left cut short is the last, and adds the bincount of its floors.
    Where the bound cannot place x~, the chained passes are replayed from
    x, one fold each, as the loop takes them (none is clamped: each starts
    in a screened range); then x = x~ = x' and E = 0, where the test is the
    screen's own.  Each pass is folded at most once.

    The bound.  Either E = 0 and x~ = x', or |x~ - x'| + u (|x~| + E) <= E,
    so that fl(x~ - E) <= x' <= fl(x~ + E).  A pass of h floors from x' and
    from x~ adds, by the screen's argument with M now the largest |O_k| for
    k <= h, and R = end + s_max + M,

        |fl(x~ + O_h) - x'_h| <= (1 + u) E + u (end + M) + h u R
                              <= E + (h + 2) u R,

    as E < end while a placement holds; the new point lies within
    end + s_max + E of 0.  So E <- fl(E + (h + 8) u R), the walk's ``slack``,
    keeps the invariant, with room to spare for the rounding of the slack,
    of the sum and of the two ends.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, not {steps}")
    d = comb.d
    breaks, shift, walks = _walks(comb, lengths, towers)
    end = breaks[-1]
    screened = sorted((w for w in walks if w.lo <= w.hi), key=lambda w: w.lo)
    los, his = [w.lo for w in screened], [w.hi for w in screened]
    buf = np.empty(max((len(w.positions) for w in walks), default=0) + 1)
    lo_ends, hi_ends = np.array(breaks[:-1]), np.array(breaks[1:])

    # default start: a generic point (1/pi of the interval), kept away from
    # the algebraic breakpoint data of the packaged instances
    x = 0.3183098861837907 * end if x0 is None else x0
    counts = np.zeros(d, dtype=np.int64)  # visits per domain position, by the last pass and blocks
    plain = [0] * d  # and by plain steps
    passes = [0] * len(screened)  # and by chained passes, per screened tower
    chain, approx, error = [], x, 0.0  # the passes since x, x~ after them, and E
    bounds, shifts = breaks[1:-1], shift.tolist()
    done, wait, backoff = 0, 0, 1
    while done < steps:
        k = bisect_right(los, approx + error) - 1
        if k >= 0 and los[k] <= approx - error and approx + error <= his[k]:  # x' is screened by tower k
            walk = screened[k]
            h = len(walk.positions)
            if steps - done < h:  # the last pass stops partway
                counts += np.bincount(walk.positions[:steps - done], minlength=d)
                break
            passes[k] += 1
            chain.append(walk)
            approx, error = approx + walk.total, error + walk.slack
            done += h
            continue
        if chain:  # the bound cannot place x~: replay the chain from x
            for walk in chain:
                walk.fold[0] = x
                np.add.accumulate(walk.fold, out=buf[:len(walk.fold)])
                x = float(buf[len(walk.positions)])
            chain.clear()
        else:
            i = bisect_right(bounds, x)  # x's domain position; points outside [0, end) clamp to an end
            kept = 0
            if wait:
                wait -= 1
            else:
                walk, f = _floor(x, walks)
                if walk is not None and walk.positions[f] == i:
                    kept, x = _checked_block(x, walk, f, steps - done, lo_ends, hi_ends)
                    counts += np.bincount(walk.positions[f:f + kept], minlength=d)
                wait, backoff = (backoff, 2 * backoff) if kept < 32 else (0, 1)
            if not kept:  # a plain step
                plain[i] += 1
                x += shifts[i]
                kept = 1
            done += kept
        if x < 0.0:
            x = 0.0
        elif x >= end:
            x = end * (1.0 - 1e-16)
        approx, error = x, 0.0
    for n, walk in zip(passes, screened):
        counts += n * walk.row
    counts += plain
    return tuple(c / steps for _, c in sorted(zip(comb.top, counts.tolist())))
