"""Machine-checkable verification suite for a built instance.

Each check function returns a CheckResult; ``run_verification`` runs them
in dependency order and marks everything after the first failure as
skipped, so a broken instance reports the layer that actually broke rather
than a cascade.  Residuals are included wherever a check is numerical; the
combinatorial checks are exact and report residual 0.0 on success.

Each check is called as ``check(built, seed)``.  Its sizes and tolerances
are the module constants below, one stated value each; the seed is its only
parameter.  Sampling is seeded and the seed is recorded in the result
details, so a report is reproducible from (instance file, seed).
"""

from __future__ import annotations

import copy
import functools
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import permutations, product

import numpy as np

from . import bratteli
from .algebra import laurent_array_mul, laurent_matrix_pow, mat_mul
from .bratteli import BratteliDiagram
from .cocycles import (
    amplify_for_common_prefix,
    recheck_certificate,
    shift_image,
    skewed_adic_step,
    tail_cocycle,
    tail_orbit_witness,
)
from .iet import PrecisionAlarm, TowerSystem, compose_loop, float_orbit_frequencies
from .iet import letter_counts, simulate_return_times
from .instances import BuiltInstance
from .maharam import (
    CONTINUITY_LEVEL,
    continuity_profile,
    default_cylinder_family,
    dyadic_grids,
    invariance_recurrence_check,
    level_counting_matrix,
    level_matrices,
    perron,
    recurrence_vector_residual,
)
from .skew import SkewCocycle, check_periodic_type

# The stated size and tolerance of each check, by criterion.
ORACLE_LEVELS = 3  # 1: towers k = 0..ORACLE_LEVELS equal the float simulation
IDENTITY_LEVELS = 4  # 2: towers up to this k pass TowerSystem's letter counts
DICTIONARY_LEVELS = 3  # 3: path <-> floor exhaustive up to this level
TAIL_PATHS = 1000  # 4: random non-maximal paths of 2-4 edges
TELESCOPE_LEVEL = 9  # 4: the telescoped form: paths of this level,
TELESCOPE_DRAWS = 60  # 4: this many drawn,
TELESCOPE_STEPS = 20  # 4: each stepped 1..TELESCOPE_STEPS times
WITNESS_LEVEL = 2  # 5: the skew towers of this level, exhausted
WITNESS_ALL_PAIRS = 22  # 5: every floor pair of a tower this tall or less,
WITNESS_SAMPLES = 150  # 5: else this many sampled pairs
COUNTING_LEVELS = 4  # 7: M(t)^k coefficient-exact up to this k
MAHARAM_PSIS = 20  # 8: random psi in [-1, 1]^m
MAHARAM_LEVEL = 5  # 8: the largest k of the base recurrence
RECURRENCE_POWER = 3  # 8: the k of the counting-route recurrence
ORBIT_STEPS = 1_000_000  # 9: float orbit length
ORBIT_FLOORS = 2 ** 16  # 9: most floors of the towers that predict the orbit
MEASURE_TOL = 1e-10  # 8, 9: bound on measure residuals
ORBIT_TOL = 5e-3  # 9: bound on visit-frequency error


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | inconclusive | skipped
    residual: float | None = None
    detail: str = ""
    runtime: float = 0.0


def _timed(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(built: BuiltInstance, seed: int = 0) -> CheckResult:
            start = time.perf_counter()
            try:
                result = fn(built, seed)
            except (AssertionError, PrecisionAlarm, ValueError, ArithmeticError) as exc:
                result = CheckResult(name, "fail", detail=str(exc) or repr(exc))
            except RuntimeError as exc:  # a bound hit before the check could decide
                result = CheckResult(name, "inconclusive", detail=str(exc) or repr(exc))
            except MemoryError as exc:  # freed as the check unwinds; the next one runs
                result = CheckResult(name, "inconclusive", detail=f"{name} ran out of memory: {exc!r}")
            result.name = name
            result.runtime = time.perf_counter() - start
            return result

        inner.check_name = name
        return inner

    return wrap


# -- criterion 1 ---------------------------------------------------------------


@_timed("tower_oracle_equivalence")
def check_tower_oracle(built: BuiltInstance, seed: int = 0) -> CheckResult:
    """Word system from loop substitution equals direct exact simulation.

    The composed words are the simulation's predictor: it confirms them in
    bulk and steps through any tower whose word it cannot confirm, so a
    wrong word still disagrees."""
    for k in range(ORACLE_LEVELS + 1):
        tower = compose_loop(built.loop, k)
        q, words = simulate_return_times(built.loop.start, built.lengths, k, tower.words)
        if q != tower.q or words != tower.words:
            return CheckResult(
                "", "fail", detail=f"simulation disagrees at level {k}"
            )
    return CheckResult("", "pass", residual=0.0, detail=f"levels 0..{ORACLE_LEVELS} exact")


# -- criterion 2 ---------------------------------------------------------------


@_timed("cocycle_identities")
def check_cocycle_identities(built: BuiltInstance, seed: int = 0) -> CheckResult:
    if not check_periodic_type(built.tower.matrix, built.phi):
        return CheckResult("", "fail", detail="A^T phi = phi failed: not periodic type")
    # criterion 1 composed k <= ORACLE_LEVELS; each TowerSystem checks
    # letter counts = A^k and column sums = q
    for k in range(ORACLE_LEVELS + 1, IDENTITY_LEVELS + 1):
        compose_loop(built.loop, k)
    return CheckResult("", "pass", residual=0.0, detail="exact integer identities hold")


# -- criterion 3 ---------------------------------------------------------------


def _all_columns(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per row of an edge-id array, whether ``table`` holds at every edge:
    ``table[ids].all(axis=1)``, as one AND per column."""
    out = table[ids[:, 0]]
    for column in ids.T[1:]:
        out &= table[column]
    return out


@_timed("bratteli_dictionary")
def check_bratteli_dictionary(built: BuiltInstance, seed: int = 0) -> CheckResult:
    diagram = built.diagram
    if letter_counts(diagram.words) != diagram.matrix:
        return CheckResult("", "fail", detail="edge multiset disagrees with incidence matrix")
    n_paths = 0
    for level in range(1, DICTIONARY_LEVELS + 1):
        heights = np.array(diagram.heights(level))
        base = np.cumsum(heights) - heights  # (tower, height) -> base[tower] + height
        hits = np.zeros(heights.sum(), dtype=np.int64)
        n_max = n_min = 0
        for ids in diagram.path_blocks(level):
            towers, floor = diagram.paths_to_floors(ids)
            if not ((0 <= floor) & (floor < heights[towers])).all():
                return CheckResult("", "fail", detail=f"floor bijection broken at level {level}")
            keys = base[towers] + floor
            np.add.at(hits, keys, 1)
            if (hits[keys] > 1).any():
                return CheckResult("", "fail", detail=f"floor bijection broken at level {level}")
            if (diagram.floors_to_paths(level, towers, floor) != ids).any():
                return CheckResult("", "fail", detail=f"floor inversion broken at level {level}")
            maximal = _all_columns(diagram.is_top, ids)
            above = diagram.paths_to_floors(diagram.adic_successors(ids[~maximal]))
            if (above[0] != towers[~maximal]).any() or (above[1] != floor[~maximal] + 1).any():
                return CheckResult("", "fail", detail=f"coding identity broken at level {level}")
            n_max += int(maximal.sum())
            n_min += int(_all_columns(diagram.floor == 0, ids).sum())
            n_paths += len(ids)
        if not hits.all():
            return CheckResult("", "fail", detail=f"path count != floor count at level {level}")
        if n_max != diagram.d or n_min != diagram.d:
            return CheckResult("", "fail", detail=f"extremal path count wrong at level {level}")
    return CheckResult(
        "", "pass", residual=0.0, detail=f"exhaustive to level {DICTIONARY_LEVELS} over {n_paths} paths"
    )


# -- criterion 4 ---------------------------------------------------------------


def tail_draws(diagram: BratteliDiagram, rng: random.Random, n_paths: int):
    """Criterion 4's paths in rng order, as edge-id lists: ``n_paths``
    non-maximal paths of 2-4 edges (a random length, then length 4 again
    while maximal); then, of TELESCOPE_DRAWS level-TELESCOPE_LEVEL draws,
    each non-maximal one with its number of adic steps in 1..TELESCOPE_STEPS."""
    paths = []
    for _ in range(n_paths):
        ids = diagram.random_path_ids(rng.choice([2, 3, 4]), rng)
        while diagram.is_maximal(ids):
            ids = diagram.random_path_ids(4, rng)
        paths.append(ids)
    starts = []
    for _ in range(TELESCOPE_DRAWS):
        ids = diagram.random_path_ids(TELESCOPE_LEVEL, rng)
        if not diagram.is_maximal(ids):
            starts.append((ids, rng.randint(1, TELESCOPE_STEPS)))
    return paths, starts


@_timed("tail_cocycle_identity")
def check_tail_cocycle(built: BuiltInstance, seed: int = 0) -> CheckResult:
    fl, diagram, phi = built.floor, built.diagram, built.phi
    paths, starts = tail_draws(diagram, random.Random(seed), TAIL_PATHS)
    wrong = []
    for k in (2, 3, 4):
        at = [i for i, ids in enumerate(paths) if len(ids) == k]
        ids = np.array([paths[i] for i in at], dtype=np.intp).reshape(-1, k)
        missed = tail_cocycle(fl, ids) != fl.under[ids[:, 0]]
        wrong += [at[i] for i in np.flatnonzero(missed.any(axis=1))]
    if wrong:
        first = "".join(diagram.labels[i] for i in paths[min(wrong)])
        return CheckResult("", "fail", detail=f"tail cocycle != phi at {first}")
    # telescoped form, the coboundary identity between f and phi: over n
    # skewed adic steps p -> q the fiber gains the phi-Birkhoff sum of the
    # orbit, which must equal the f-sum difference of p and q
    p = np.array([ids for ids, _ in starts], dtype=np.intp).reshape(-1, TELESCOPE_LEVEL)
    n = np.array([n for _, n in starts], dtype=int)
    q, total = p.copy(), np.zeros((len(p), phi.m), dtype=fl.f.dtype)
    whole = np.ones(len(p), dtype=bool)  # rows that took all their n steps
    for t in range(n.max(initial=0)):
        step = whole & (t < n)
        whole &= ~(step & diagram.is_top[q].all(axis=1))  # no step from a maximal iterate
        step &= whole
        q[step], total[step] = skewed_adic_step(fl, q[step], total[step])
    # summed over the edges where p and q differ: f[p] - f[q] is 0 on the others
    broken = whole & (total != (fl.f[p] - fl.f[q]).sum(axis=1)).any(axis=1)
    if broken.any():
        return CheckResult("", "fail", detail=f"telescoped sum identity broken (n={n[broken.argmax()]})")
    return CheckResult("", "pass", residual=0.0, detail=f"{TAIL_PATHS} paths, seed {seed}")


# -- criterion 5 ---------------------------------------------------------------


@_timed("tail_orbit_equivalence")
def check_tail_orbit(built: BuiltInstance, seed: int = 0) -> CheckResult:
    fl, diagram = built.floor, built.diagram
    depth = WITNESS_LEVEL
    rng = random.Random(seed)
    for j in range(1, diagram.d + 1):
        height = diagram.heights(depth)[j - 1]
        # the skew tower in floor order: its paths from the dictionary, its
        # fibers the running sum of what one skewed adic step adds to each
        ids = diagram.floors_to_paths(depth, np.full(height, j - 1), np.arange(height))
        zero = np.zeros((height, fl.m), dtype=np.int64)
        above, moved = skewed_adic_step(fl, ids[:-1], zero[1:])
        fiber = np.cumsum(np.vstack((zero[:1], moved)), axis=0)
        image = np.column_stack(shift_image(fl, ids, fiber, depth))
        if (image != image[0]).any():
            return CheckResult("", "fail", detail=f"orbit left its shift class in tower {j}")
        if (ids[0] != diagram.min_path(depth, j)).any() or (above != ids[1:]).any():
            return CheckResult("", "fail", detail=f"tower {j} orbit left the floor order")
        if not diagram.is_maximal(ids[-1]):
            return CheckResult("", "fail", detail=f"tower {j} orbit ended early")
        # the tower is one skewed orbit, so every floor pair is connected;
        # validate the witness itself on all pairs, or on sampled ones
        if height <= WITNESS_ALL_PAIRS:
            a, b = np.divmod(np.arange(height * height), height)
        else:
            a, b = np.array([(rng.randrange(height), rng.randrange(height)) for _ in range(WITNESS_SAMPLES)]).T
        n, found = tail_orbit_witness(fl, (ids[a], fiber[a]), (ids[b], fiber[b]), depth)
        if not (found & (n == b - a)).all():
            return CheckResult("", "fail", detail=f"witness failed in tower {j}")
    return CheckResult("", "pass", residual=0.0, detail=f"level-{depth} towers exhausted")


# -- criterion 6 ---------------------------------------------------------------


@_timed("aperiodicity_certificate")
def check_certificate(built: BuiltInstance, seed: int = 0) -> CheckResult:
    cert = amplify_for_common_prefix(built.loop, built.phi)  # inconclusive via _timed on a cap
    if not cert.verdict:
        return CheckResult("", "fail", detail=f"lattice test failed: factors {cert.factors}")
    if not recheck_certificate(built.loop, built.phi, cert):
        return CheckResult("", "fail", detail="stored certificate failed re-validation")
    return CheckResult("", "pass", residual=0.0, detail=f"exponent {cert.exponent}, M={cert.prefix_length}")


# -- criterion 7 ---------------------------------------------------------------


def path_keys(diagram: BratteliDiagram, k: int, strides: np.ndarray, weight: np.ndarray) -> Iterator[np.ndarray]:
    """Each level-k path's flat key into criterion 7's count array, in
    arrays of at most ``bratteli.PATH_BLOCK`` keys: its source's and target's
    strides plus the sum of its edges' weights.  Level 1 reads the edges from
    ``path_blocks(1)``; a deeper level keys each block of
    ``path_blocks(k - 1)`` once, as prefixes, and adds the last edge per end
    vertex v as an outer sum of v's prefix keys and its out-edges' parts,
    split by rows, and by out-edges where v has more than a block of them,
    so no level-k id row is ever built."""
    block = bratteli.PATH_BLOCK
    last = weight + diagram.target * strides[1]  # an edge's part of the key where it ends the path
    tails = [last[out[out >= 0]] for out in diagram.out]  # per vertex, its out-edges' parts
    for ids in diagram.path_blocks(max(k - 1, 1)):
        key = diagram.source[ids[:, 0]] * strides[0]
        if k == 1:
            yield key + last[ids[:, 0]]
            continue
        key += weight[ids].sum(axis=1)
        ends = diagram.target[ids[:, -1]]
        for v, tail in enumerate(tails):
            heads = key[ends == v]
            rows = max(1, block // len(tail))
            for r in range(0, len(heads), rows):
                for s in range(0, len(tail), block):
                    yield (heads[r:r + rows, None] + tail[s:s + block]).ravel()


@_timed("level_counting_cocycle")
def check_level_counting(built: BuiltInstance, seed: int = 0) -> CheckResult:
    """M(t)^k against the level-k paths, coefficient by coefficient, k = 1..COUNTING_LEVELS.

    The paths are counted in a dense array over (source, target,
    S_k f - k min f) by ``np.bincount`` of their ``path_keys``.  The power
    is ``laurent_array_mul``'s M^(k-1) * M, placed in that box by its
    exponent offset; a coefficient outside the box matches no path.  The two
    must be equal, and each cell's total the entry of the exact A^k (at k = 1,
    M(1) = A)."""
    diagram, f = built.diagram, built.floor.f
    mat = level_counting_matrix(built.floor)
    d, lo, hi = diagram.d, f.min(axis=0), f.max(axis=0)
    mk, ak = mat, diagram.matrix
    n_paths = 0
    for k in range(1, COUNTING_LEVELS + 1):
        if k > 1:
            mk, ak = laurent_array_mul(mk, mat), mat_mul(ak, diagram.matrix)
        shape = (d, d, *(k * (hi - lo) + 1))
        strides = np.cumprod((1, *shape[:0:-1]))[::-1]
        counts = np.zeros(np.prod(shape), dtype=np.int64)
        for key in path_keys(diagram, k, strides, (f - lo) @ strides[2:]):
            counts += np.bincount(key, minlength=counts.size)
        counts = counts.reshape(shape)
        n_paths += int(counts.sum())
        cells = np.nonzero(mk.counts)
        # each coefficient's exponent index in the box
        at = np.add(cells[2:], np.subtract(mk.offset, k * lo)[:, None])
        inside = ((at >= 0) & (at < np.array(shape[2:])[:, None])).all()
        power = np.zeros_like(counts)
        if inside:
            power[(*cells[:2], *at)] = mk.counts[cells]
        if not (inside and np.array_equal(power, counts)):
            return CheckResult("", "fail", detail=f"coefficients disagree with paths at k={k}")
        if (counts.reshape(d * d, -1).sum(axis=1) != np.ravel(ak)).any():  # M^k's totals, as power == counts
            return CheckResult("", "fail", detail=f"coefficient totals != incidence power at k={k}")
    return CheckResult(
        "", "pass", residual=0.0, detail=f"coefficient-exact to k={COUNTING_LEVELS} over {n_paths} paths"
    )


# -- criterion 8 ---------------------------------------------------------------


@_timed("maharam_invariance")
def check_maharam(built: BuiltInstance, seed: int = 0) -> CheckResult:
    fl = built.floor
    rng = random.Random(seed)
    psis = np.empty((MAHARAM_PSIS, fl.m))
    for t in range(MAHARAM_PSIS):
        psis[t] = [rng.uniform(-1.0, 1.0) for _ in range(fl.m)]
        rng.randrange(2 ** 30)  # a retired sampler's seed, drawn still so that the next psi stays the same
    matrices = level_matrices(fl, psis)
    pf = perron(matrices)
    power = laurent_matrix_pow(level_counting_matrix(fl), RECURRENCE_POWER)
    recurrence = [recurrence_vector_residual(matrices, pf, k) for k in range(1, MAHARAM_LEVEL + 1)]
    recurrence.append(invariance_recurrence_check(psis, pf, RECURRENCE_POWER, power))
    residuals = np.max(recurrence, 0)
    worst = np.maximum.accumulate(residuals)  # running worst over psi; NaN stays NaN
    detail = f"recurrence {residuals.max():.2e}, Perron <= {pf.iterations.max()} iterations"
    t = int(np.argmin(worst <= MEASURE_TOL))  # the first psi over the bound, if any
    if not worst[t] <= MEASURE_TOL:
        return CheckResult("", "fail", float(worst[t]), f"residual above {MEASURE_TOL:g} at psi #{t}; {detail}")
    return CheckResult("", "pass", float(worst[-1]), f"{MAHARAM_PSIS} psi, seed {seed}; {detail}")


# -- criterion 9 ---------------------------------------------------------------


def orbit_towers(diagram: BratteliDiagram) -> tuple[np.ndarray, ...]:
    """The floor sources of the deepest level, 1 at least, whose towers have
    at most ORBIT_FLOORS floors in all: the predictor of criterion 9's orbit."""
    level = 1
    while sum(diagram.heights(level + 1)) <= ORBIT_FLOORS:
        level += 1
    return diagram.floor_sources(level)


@_timed("psi_zero_consistency")
def check_psi_zero(built: BuiltInstance, seed: int = 0) -> CheckResult:
    vector = perron(level_matrices(built.floor, np.zeros((1, built.m)))).vector[0].tolist()  # M(1) = A
    lengths = built.lengths
    worst = max(abs(a - b) for a, b in zip(vector, lengths.lengths))
    if worst > MEASURE_TOL:
        return CheckResult("", "fail", residual=worst, detail="PF vector mismatch at psi=0")
    freqs = float_orbit_frequencies(built.loop.start, lengths, ORBIT_STEPS, orbit_towers(built.diagram))
    orbit_err = max(abs(f - v) for f, v in zip(freqs, vector))
    if orbit_err > ORBIT_TOL:
        return CheckResult("", "fail", residual=orbit_err, detail="orbit frequencies off")
    detail = f"PF match {worst:.2e}; orbit ({ORBIT_STEPS} steps) off by {orbit_err:.2e}"
    return CheckResult("", "pass", residual=worst, detail=detail)


# -- criterion 10 --------------------------------------------------------------


@_timed("continuity_modulus")
def check_continuity(built: BuiltInstance, seed: int = 0) -> CheckResult:
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=CONTINUITY_LEVEL)
    grids = dyadic_grids(built.phi.m)
    profiles = continuity_profile(built.floor, cylinders, grids)
    moduli = [p.modulus for p in profiles]
    if not all(a > b for a, b in zip(moduli, moduli[1:])):
        return CheckResult("", "fail", detail=f"moduli not decreasing: {moduli}")
    return CheckResult(
        "",
        "pass",
        residual=moduli[-1],
        detail="moduli " + " > ".join(f"{m:.3e}" for m in moduli),
    )


# -- criterion 11 --------------------------------------------------------------


def _tower_with_swapped_letters(tower: TowerSystem) -> TowerSystem:
    """Corrupted copy: two letters traded between different return words.

    Bypasses the TowerSystem validation on purpose; the result disagrees
    with its own incidence matrix, which is exactly what the dictionary
    layer must detect.
    """
    words = [list(w) for w in tower.words]
    a, u, b, v = next(
        (a, u, b, v)
        for a, b in permutations(range(len(words)), 2)
        for u, v in product(range(len(words[a])), range(len(words[b])))
        if words[a][u] != words[b][v]
    )
    words[a][u], words[b][v] = words[b][v], words[a][u]
    corrupt = copy.copy(tower)  # a copy runs no __post_init__
    object.__setattr__(corrupt, "words", tuple(map(bytes, words)))
    return corrupt


def _phi_fault(built: BuiltInstance) -> SkewCocycle:
    """The first change of one phi value by +1, then -1 (intervals, then
    coordinates, in order) whose cocycle still generates Z^m and is no
    longer fixed by A^T."""
    for i, k, step in product(range(built.phi.d), range(built.phi.m), (1, -1)):
        values = [list(v) for v in built.phi.values]
        values[i][k] += step
        try:
            bad_phi = SkewCocycle(values)
        except ValueError:  # the changed values generate a proper sublattice
            continue
        if not check_periodic_type(built.tower.matrix, bad_phi):
            return bad_phi
    raise RuntimeError("no change of one phi value by +-1 is a fault to inject")


@_timed("fault_injection")
def check_fault_injection(built: BuiltInstance, seed: int = 0) -> CheckResult:
    """Perturbations must surface at their own layer, gating the rest."""
    report = run_layers(
        replace(built, phi=_phi_fault(built)),
        [check_cocycle_identities, check_bratteli_dictionary, check_tail_cocycle],
        seed,
    )
    statuses = [r.status for r in report]
    if statuses != ["fail", "skipped", "skipped"]:
        return CheckResult("", "fail", detail=f"phi fault gave {statuses}")
    corrupt = _tower_with_swapped_letters(built.tower)
    corrupted = replace(built, diagram=BratteliDiagram(corrupt))
    report = run_layers(corrupted, [check_bratteli_dictionary, check_tail_orbit], seed)
    statuses = [r.status for r in report]
    if statuses != ["fail", "skipped"]:
        return CheckResult("", "fail", detail=f"word fault gave {statuses}")
    return CheckResult("", "pass", residual=0.0, detail="faults localise to their layer")


# -- the layered runner ---------------------------------------------------------


ALL_CHECKS = [
    check_tower_oracle,
    check_cocycle_identities,
    check_bratteli_dictionary,
    check_tail_cocycle,
    check_tail_orbit,
    check_certificate,
    check_level_counting,
    check_maharam,
    check_psi_zero,
    check_continuity,
    check_fault_injection,
]


def run_layers(built: BuiltInstance, checks, seed: int = 0) -> Iterator[CheckResult]:
    """Run checks in order, yielding each result as its check ends; after
    the first failure everything is skipped."""
    failed = False
    for fn in checks:
        if failed:
            yield CheckResult(fn.check_name, "skipped", detail="earlier layer failed")
            continue
        result = fn(built, seed)
        failed = result.status == "fail"
        yield result


def run_verification(built: BuiltInstance, seed: int = 0) -> Iterator[CheckResult]:
    return run_layers(built, ALL_CHECKS, seed)
