"""Floor and tail cocycles on the diagram, and the aperiodicity certificate.

The floor cocycle f attaches to an edge (j, l) minus the partial sum of the
skewing cocycle up the first l floors of tower j, so it has memory one:
its value on a path is its value on the first edge.  The tail cocycle
telescopes the f-discrepancy between a path and its adic successor; in the
periodic-type setting it reproduces the skewing cocycle itself, which is
what lets the shift-with-f skew-product renormalise the adic skew-product.

Aperiodicity of f is certified through the subgroup of differences of
equal-length Birkhoff sums of f over shift-periodic paths: once the tower
words share a long enough common prefix whose letters cover the alphabet,
that subgroup visibly contains every value of the skewing cocycle and
hence, by the generation assumption, the whole lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algebra import column_sums, invariant_factors, mat_mul, row_hnf, solve_in_row_lattice
from .bratteli import BratteliDiagram
from .iet import RauzyLoop, compose_loop
from .skew import SkewCocycle, require_periodic_type


class CertificateInconclusive(RuntimeError):
    """Amplification cap hit before the common-prefix conditions held."""


class FloorCocycle:
    """The f-value of every edge of a diagram, plus path sums.

    Arrays by edge id: ``f`` holds f(e), shape (E, m), minus the sum of phi
    over the floors of its tower under it; ``cell`` holds the flat index
    source * d + target (0-based) of each edge's matrix cell.
    """

    def __init__(self, diagram: BratteliDiagram, phi: SkewCocycle):
        if phi.d != diagram.d:
            raise ValueError("cocycle length does not match diagram")
        self.diagram = diagram
        self.phi = phi
        self.m = phi.m
        under = np.array(phi.values)[diagram.source]  # phi of the label under each floor
        below = np.cumsum(under, axis=0) - under  # summed over the edge ids before each one
        self.f = below[np.array(diagram.first_ids)[diagram.target]] - below
        self.cell = diagram.source * diagram.d + diagram.target

    def path_sum(self, p: tuple[int, ...], k: int | None = None) -> tuple[int, ...]:
        """Birkhoff sum of f along the first k shifts of the path: its first k edge ids."""
        return tuple(self.f[list(p[:k])].sum(axis=0).tolist())


def tail_cocycle(fl: FloorCocycle, ids: np.ndarray) -> np.ndarray:
    """Telescoped f-discrepancy between each row of a (rows, k) edge-id
    array and its adic successor, shape (rows, m).

    Only the shifts up to the first non-maximal edge contribute, because f
    has memory one and the successor agrees with the row beyond that edge.
    Undefined (MaximalPathError) on a row of maximal edges.
    """
    succ = fl.diagram.adic_successors(ids)  # raises MaximalPathError on the boundary
    first_below_top = (~fl.diagram.is_top[ids]).argmax(axis=1)
    shifts = np.arange(ids.shape[1]) <= first_below_top[:, None]
    return ((fl.f[ids] - fl.f[succ]) * shifts[:, :, None]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class SkewedPathState:
    """Rows of paths, a (rows, k) edge-id array, each with a fiber coordinate
    in Z^m, a (rows, m) array."""

    ids: np.ndarray
    fiber: np.ndarray


def skewed_adic_step(fl: FloorCocycle, state: SkewedPathState) -> SkewedPathState:
    """Each row (p, a) -> (successor of p, a + phi at the source of edge one)."""
    move = np.array(fl.phi.values)[fl.diagram.source[state.ids[:, 0]]]
    return SkewedPathState(fl.diagram.adic_successors(state.ids), state.fiber + move)


def shift_image(fl: FloorCocycle, state: SkewedPathState, depth: int) -> SkewedPathState:
    """Remaining edge ids and fiber of each row after ``depth`` skewed shift steps."""
    if state.ids.shape[1] < depth:
        raise ValueError("depth exceeds path length")
    return SkewedPathState(state.ids[:, depth:], state.fiber + fl.f[state.ids[:, :depth]].sum(axis=1))


def tail_orbit_witness(
    fl: FloorCocycle, s1: SkewedPathState, s2: SkewedPathState, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit witnesses for pairs of states with the same depth-k shift image,
    row i of s1 with row i of s2.

    Returns (n, found): where found, the n-th skewed adic image of the s1
    row is the s2 row (n may be negative); found is False where there is
    none inside one level-``depth`` skew tower, as when the shift images
    differ.  The paths must share their edges beyond ``depth`` and their
    level-``depth`` tower; n is their floor difference, a witness only when
    the fibers differ by phi summed over the labels of the floors passed:
    exactly what n adic steps add.
    """
    if not 1 <= depth <= min(s1.ids.shape[1], s2.ids.shape[1]):
        raise ValueError("depth must be between 1 and the path length")
    (t1, h1), (t2, h2) = (fl.diagram.paths_to_floors(s.ids[:, :depth]) for s in (s1, s2))
    same_tail = s1.ids.shape == s2.ids.shape and (s1.ids[:, depth:] == s2.ids[:, depth:]).all(axis=1)
    # per tower, phi summed over the floors under each height 0..h; towers stacked
    values, zero = np.array(fl.phi.values), np.zeros((1, fl.m), dtype=np.int64)
    under = [np.cumsum(np.vstack((zero, values[s])), axis=0) for s in fl.diagram.floor_sources(depth)]
    start = np.cumsum([0, *map(len, under[:-1])])
    under = np.concatenate(under)
    passed = under[start[t2] + h2] - under[start[t1] + h1]
    return h2 - h1, (t1 == t2) & same_tail & (s2.fiber - s1.fiber == passed).all(axis=1)


@dataclass(frozen=True)
class AperiodicityCertificate:
    """Witness data for the full-lattice test on Birkhoff-sum differences.

    ``exponent`` counts traversals of the raw loop (amplification included);
    ``repetition`` counts traversals of the positivity-amplified period.
    ``prefix_letters`` is the covering witness n -> i(n) for 1 <= n <= M-1.
    """

    exponent: int
    repetition: int
    prefix_length: int  # M
    prefix_letters: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...]
    verdict: bool
    q_min: int

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "repetition": self.repetition,
            "M": self.prefix_length,
            "prefix_letters": list(self.prefix_letters),
            "generators": [list(g) for g in self.generators],
            "invariant_factors": list(self.factors),
            "verdict": self.verdict,
            "q_min": self.q_min,
        }


def _common_prefix_length(words) -> int:
    shortest = min(len(w) for w in words)
    for n in range(shortest):
        letter = words[0][n]
        if any(w[n] != letter for w in words):
            return n
    return shortest


MAX_REPETITION_EXPONENT = 10
MAX_TOTAL_WORD_LENGTH = 10_000_000


def amplify_for_common_prefix(
    loop: RauzyLoop, phi: SkewCocycle
) -> AperiodicityCertificate:
    """Repeat the loop until all tower words share a covering prefix.

    Doubling schedule on the repetition count.  The total word length of a
    repetition is read off A^rep before its words are built, so words that
    would outgrow MAX_TOTAL_WORD_LENGTH end the search as inconclusive
    without being built.  At a qualifying repetition,
    the covering prefix supplies shift-fixed self-loop paths whose f-sum
    differences recover every value of the skewing cocycle; the Smith
    invariant factors of those generators decide the verdict.
    """
    require_periodic_type(loop.period_matrix, phi)
    d = loop.d
    last_diag = ""
    power = loop.period_matrix  # A^rep, squared each round: its column sums are the q
    for exp in range(MAX_REPETITION_EXPONENT + 1):
        rep = 2 ** exp
        if exp:
            power = mat_mul(power, power)
        total = sum(column_sums(power))
        if total > MAX_TOTAL_WORD_LENGTH:
            raise CertificateInconclusive(
                f"word length cap exceeded at repetition {rep}: sum q = {total} > "
                f"{MAX_TOTAL_WORD_LENGTH}; last state: {last_diag}"
            )
        tower = compose_loop(loop, rep)
        prefix_len = _common_prefix_length(tower.words)
        m_len = prefix_len - 1
        covered = {tower.words[0][n] for n in range(1, max(m_len, 1))}
        q_min = min(tower.q)
        covers = covered == set(range(1, d + 1))
        tall_enough = q_min > m_len + 1
        last_diag = f"rep={rep} M={m_len} q_min={q_min} covers={covers}"
        if not (covers and tall_enough):
            continue
        diagram = BratteliDiagram(tower)
        fl = FloorCocycle(diagram, phi)
        letters = tower.words[0][1:m_len + 1]  # i_n for n = 1 .. M
        fixed = [diagram.first_ids[i - 1] + n for n, i in enumerate(letters, 1)]  # edge (i_n, n)
        if any(diagram.source[e] != i - 1 or diagram.floor[e] != n or diagram.is_top[e]
               for n, (e, i) in enumerate(zip(fixed, letters), 1)):
            raise AssertionError("covering prefix produced a bad self-loop edge")
        generators = []
        for n in range(1, m_len):
            g = tuple((fl.f[fixed[n - 1]] - fl.f[fixed[n]]).tolist())
            if g != phi.of_label(letters[n - 1]):
                raise AssertionError("generator differs from the cocycle value")
            generators.append(g)
        factors = invariant_factors(generators)
        verdict = factors == (1,) * phi.m
        return AperiodicityCertificate(
            exponent=loop.amplification * rep,
            repetition=rep,
            prefix_length=m_len,
            prefix_letters=tuple(letters[:-1]),
            generators=tuple(generators),
            factors=factors,
            verdict=verdict,
            q_min=q_min,
        )
    raise CertificateInconclusive(
        f"repetition cap 2^{MAX_REPETITION_EXPONENT} exceeded; last state: {last_diag}"
    )


def recheck_certificate(
    loop: RauzyLoop, phi: SkewCocycle, cert: AperiodicityCertificate
) -> bool:
    """Re-derive every certificate field from the stored witness data."""
    tower = compose_loop(loop, cert.repetition)
    m_len = _common_prefix_length(tower.words) - 1
    if m_len != cert.prefix_length or min(tower.q) != cert.q_min:
        return False
    if not min(tower.q) > m_len + 1:
        return False
    letters = tuple(tower.words[0][n] for n in range(1, m_len))
    if letters != cert.prefix_letters:
        return False
    if set(letters) != set(range(1, loop.d + 1)):
        return False
    expected = tuple(phi.of_label(i) for i in letters)
    if expected != cert.generators:
        return False
    factors = invariant_factors(cert.generators)
    return factors == cert.factors and cert.verdict == (factors == (1,) * phi.m)


CYCLE_MAX_LEN = 12  # edges walked before sample_cycle gives up


def sample_cycle(diagram: BratteliDiagram, rng: random.Random) -> tuple[int, ...] | None:
    """One random shift-periodic block: the edge ids of a cycle in the source graph."""
    v = rng.randrange(1, diagram.d + 1)
    ids = []
    current = v
    for _ in range(CYCLE_MAX_LEN):
        out = diagram.out[current - 1]
        ids.append(int(rng.choice(out[out >= 0])))
        current = int(diagram.target[ids[-1]]) + 1
        if current == v:
            return tuple(ids)
    return None


def delta_closure_probe(fl: FloorCocycle, generators, samples: int, seed: int) -> bool:
    """Sampled closure check of the Birkhoff-difference subgroup.

    Draws pairs of equal-length shift-periodic blocks and verifies that the
    difference of their f-sums lies in the lattice spanned by the
    certificate generators.
    """
    rng = random.Random(seed)
    lattice = row_hnf(generators)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    checked = 0
    attempts = 0
    while checked < samples and attempts < 200 * samples:
        attempts += 1
        cycle = sample_cycle(fl.diagram, rng)
        if cycle is None:
            continue
        bucket = by_length.setdefault(len(cycle), [])
        cycle_sum = fl.f[list(cycle)].sum(axis=0)
        for other in bucket:
            if solve_in_row_lattice(lattice, (cycle_sum - fl.f[list(other)].sum(axis=0)).tolist()) is None:
                return False
            checked += 1
            if checked >= samples:
                break
        bucket.append(cycle)
    if checked < samples:
        raise RuntimeError("could not draw enough equal-length cycle pairs")
    return True
