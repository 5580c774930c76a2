"""Reference for the exact simulation oracle: the per-step loop that
``iet.simulate_return_times`` replaced, kept as it was, with tuple words.
Each step recomputes every sum and gap from u, w and the breakpoints, and
snaps with ``abs`` on both sides of the bisected interval.  The tests
require the oracle to return the same (q, words), or to raise the same
exception with the same message."""

from bisect import bisect_right

from ietskew.iet import HORIZON, KEANE_TOL, SCALE, SNAP, PrecisionAlarm, _positions


def reference_return_times(comb, lengths, level):
    """(q, words) of the level-``level`` towers, words as tuples of labels."""
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
    order = {label: k for k, label in enumerate(comb.top)}
    q_by_label = tuple(q_out[order[j]] for j in range(1, d + 1))
    words_by_label = tuple(words_out[order[j]] for j in range(1, d + 1))
    return q_by_label, words_by_label
