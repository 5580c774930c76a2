"""Floor and tail cocycles on the diagram, and the aperiodicity certificate.

The floor cocycle f attaches to an edge (j, l) minus the partial sum of the
skewing cocycle up the first l floors of tower j, so it has memory one:
its value on a path is its value on the first edge.  The tail cocycle
telescopes the f-discrepancy between a path and its adic successor; in the
periodic-type setting it reproduces the skewing cocycle itself, which is
what lets the shift-with-f skew-product renormalise the adic skew-product.
Skewed rows travel as a plain pair of arrays, (rows, k) edge ids and
(rows, m) fibers; ``skewed_adic_step`` is the one implementation of the
skew-product T_phi(x, a) = (Tx, a + phi(x)) on them.

Aperiodicity of f is certified through the subgroup of differences of
equal-length Birkhoff sums of f over shift-periodic paths: once the tower
words share a long enough common prefix whose letters cover the alphabet,
that subgroup visibly contains every value of the skewing cocycle and
hence, by the generation assumption, the whole lattice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import column_sums, invariant_factors, mat_mul
from .bratteli import BratteliDiagram
from .iet import RauzyLoop, compose_loop
from .skew import SkewCocycle, require_periodic_type


class CertificateInconclusive(RuntimeError):
    """Amplification cap hit before the common-prefix conditions held."""


class FloorCocycle:
    """The f-value of every edge of a diagram, plus path sums.

    Arrays by edge id: ``under`` holds phi of the label under each edge's
    floor, phi at its source, shape (E, m), which is what a skewed adic step
    adds at edge one; ``f`` holds f(e), minus the sum of ``under`` over the
    floors of its tower below it; ``cell`` holds the flat index
    source * d + target (0-based) of each edge's matrix cell.
    """

    def __init__(self, diagram: BratteliDiagram, phi: SkewCocycle):
        if phi.d != diagram.d:
            raise ValueError("cocycle length does not match diagram")
        self.diagram = diagram
        self.phi = phi
        self.m = phi.m
        self.under = np.array(phi.values)[diagram.source]
        below = np.cumsum(self.under, axis=0) - self.under  # summed over the edge ids before each one
        self.f = below[np.array(diagram.first_ids)[diagram.target]] - below
        self.cell = diagram.source * diagram.d + diagram.target

    def path_sum(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """Birkhoff sum of f along the path, its edge ids."""
        return tuple(self.f[list(p)].sum(axis=0).tolist())


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


def skewed_adic_step(fl: FloorCocycle, ids: np.ndarray, fiber: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row (p, a) of (rows, k) edge ids and (rows, m) fibers in Z^m ->
    (successor of p, a + phi at the source of edge one)."""
    return fl.diagram.adic_successors(ids), fiber + fl.under[ids[:, 0]]


def shift_image(fl: FloorCocycle, ids: np.ndarray, fiber: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Remaining edge ids and fiber of each row after ``depth`` skewed shift steps."""
    if ids.shape[1] < depth:
        raise ValueError("depth exceeds path length")
    return ids[:, depth:], fiber + fl.f[ids[:, :depth]].sum(axis=1)


def tail_orbit_witness(fl: FloorCocycle, first, second, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit witnesses for two (ids, fiber) pairs of skewed rows with the same
    depth-k shift image, row i of ``first`` with row i of ``second``.

    Returns (n, found): where found, the n-th skewed adic image of the first
    row is the second (n may be negative); found is False where there is
    none inside one level-``depth`` skew tower, as when the shift images
    differ.  The paths must share their edges beyond ``depth`` and their
    level-``depth`` tower; n is their floor difference, a witness only when
    the fibers differ by phi summed over the labels of the floors passed:
    exactly what n adic steps add.
    """
    (ids1, fiber1), (ids2, fiber2) = first, second
    if not 1 <= depth <= min(ids1.shape[1], ids2.shape[1]):
        raise ValueError("depth must be between 1 and the path length")
    (t1, h1), (t2, h2) = (fl.diagram.paths_to_floors(ids[:, :depth]) for ids in (ids1, ids2))
    same_tail = ids1.shape == ids2.shape and (ids1[:, depth:] == ids2[:, depth:]).all(axis=1)
    # per tower, phi summed over the floors under each height 0..h; towers stacked
    values, zero = np.array(fl.phi.values), np.zeros((1, fl.m), dtype=np.int64)
    under = [np.cumsum(np.vstack((zero, values[s])), axis=0) for s in fl.diagram.floor_sources(depth)]
    start = np.cumsum([0, *map(len, under[:-1])])
    under = np.concatenate(under)
    passed = under[start[t2] + h2] - under[start[t1] + h1]
    return h2 - h1, (t1 == t2) & same_tail & (fiber2 - fiber1 == passed).all(axis=1)


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
        renamed = {"prefix_length": "M", "factors": "invariant_factors"}
        return {renamed.get(key, key): value for key, value in asdict(self).items()}


def _covering_prefix(words) -> tuple[int, int, tuple[int, ...]]:
    """(M, q_min, (i_1, ..., i_{M-1})) of a tower's return words: M + 1 is the
    length of their common prefix, q_min the shortest word's length and i_n
    the letter at 0-based position n of the prefix, the covering candidates."""
    q_min = min(map(len, words))
    shared = next((n for n in range(q_min) if len({w[n] for w in words}) > 1), q_min)
    return shared - 1, q_min, tuple(words[0][1:max(shared - 1, 1)])


MAX_REPETITION_EXPONENT = 10
MAX_TOTAL_WORD_LENGTH = 10_000_000


def amplify_for_common_prefix(
    loop: RauzyLoop, phi: SkewCocycle
) -> AperiodicityCertificate:
    """Repeat the loop until all tower words share a covering prefix.

    Doubling schedule on the repetition count.  The total word length of a
    repetition is read off A^rep before its words are built, so words that
    would outgrow MAX_TOTAL_WORD_LENGTH end the search as inconclusive
    without being built.  When the shortest word of repetition 1 is a prefix
    of every word, so are its images at every repetition: q_min = M + 1
    stays, and the search ends as inconclusive at once.  At a qualifying
    repetition, the covering prefix supplies shift-fixed self-loop paths
    whose f-sum differences recover every value of the skewing cocycle; the
    Smith invariant factors of those generators decide the verdict.
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
        m_len, q_min, prefix_letters = _covering_prefix(tower.words)
        covers = set(prefix_letters) == set(range(1, d + 1))
        tall_enough = q_min > m_len + 1
        last_diag = f"rep={rep} M={m_len} q_min={q_min} covers={covers}"
        if not exp and m_len + 1 == q_min:  # sigma^n(j) is then a prefix of every sigma^n(i)
            raise CertificateInconclusive(
                f"the shortest return word is a prefix of every return word, so q_min = M + 1 "
                f"at every repetition; last state: {last_diag}"
            )
        if not (covers and tall_enough):
            continue
        diagram = BratteliDiagram(tower)
        fl = FloorCocycle(diagram, phi)
        letters = (*prefix_letters, tower.words[0][m_len])  # i_n for n = 1 .. M
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
            prefix_letters=prefix_letters,
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
    if cert.exponent != loop.amplification * cert.repetition:
        return False
    m_len, q_min, letters = _covering_prefix(compose_loop(loop, cert.repetition).words)
    if (m_len, q_min, letters) != (cert.prefix_length, cert.q_min, cert.prefix_letters):
        return False
    if not q_min > m_len + 1 or set(letters) != set(range(1, loop.d + 1)):
        return False
    expected = tuple(phi.of_label(i) for i in letters)
    if expected != cert.generators:
        return False
    factors = invariant_factors(cert.generators)
    return factors == cert.factors and cert.verdict == (factors == (1,) * phi.m)

