"""Closed-form invariant measures of cylinder sets via the level-counting matrix.

The level-counting matrix M(t) refines the incidence matrix A: entry (i, j)
sums a monomial t^{f(e)} over the edges from i to j, so the coefficient of
t^a in (M^k)_{ij} counts the level-k paths from i to j whose f-sum is a,
and M(1,...,1) = A.

For a parameter psi in R^m set lambda_i = exp(psi_i).  M(lambda) is a
strictly positive matrix; with (r, v) its Perron eigenpair (v normalised to
unit L1 mass) the measure of the cylinder "path p_k, fiber a" is

    lambda^(a + S_k f(p_k)) * v[target(p_k)] / r^k,

normalised so the whole fiber-0 slice has mass one.  The numerical core
takes a stack of psi: one M(lambda) stack, one Perron call, and masses from
their logarithm <psi, a + S_k f(p)> + log v_t - k log r.  Everything here
verifies numerically: the base recurrence, invariance under the skewed
exchange, quasi-invariance of the base marginal, and the continuity of the
measures in psi, reported as an observed grid modulus (never as a proof).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import LaurentMatrix, vec_add, zero_vector
from .bratteli import BratteliDiagram
from .cocycles import FloorCocycle, skewed_adic_step
from .skew import SkewCocycle

PF_TOL = 1e-14
PF_MAX_ITER = 100_000
CONTINUITY_LEVEL = 4  # level of the default cylinder family: criterion 10 and ``continuity``
GRID_REFINEMENTS = 3  # dyadic refinements of GRID_BOX in the default grids
GRID_BOX = (-1.0, 1.0)
TABLE_LEVEL = 5  # level of a ``maharam`` table without --level


@dataclass(frozen=True)
class PerronData:
    """Perron pairs of an (N, d, d) stack, one row per matrix: eigenvalues
    (N,), unit-L1 vectors (N, d) and power-iteration steps (N,)."""

    eigenvalue: np.ndarray
    vector: np.ndarray
    iterations: np.ndarray


def perron(matrices: np.ndarray) -> PerronData:
    """Leading eigenpairs of an (N, d, d) stack of strictly positive matrices
    by power iteration; one matrix is a stack of one.

    The stack is iterated together from a uniform start with L1
    normalisation.  Each matrix stops on its own once
    |M v - r v|_1 <= PF_TOL * r, a bound that scales with M.  The returned
    r is the L1 mass of M v for the previous iterate's v, not of the
    returned v, so by rounding it can sit just outside the Collatz-Wielandt
    bracket [min_i (Mv)_i / v_i, max_i (Mv)_i / v_i] of the returned v.
    """
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("perron needs a stack of square matrices, shape (N, d, d)")
    if not (np.isfinite(mats).all() and (mats > 0).all()):
        raise ValueError("perron needs a finite, strictly positive matrix")
    n, d, _ = mats.shape
    r, v, iterations = np.empty(n), np.empty((n, d)), np.zeros(n, dtype=int)
    if not n:  # an empty stack: nothing to iterate
        return PerronData(r, v, iterations)
    live = np.arange(n)  # matrices still iterating; mats is cut down with it
    mv = mats.sum(axis=2) / d  # M v for the uniform start
    for step in range(1, PF_MAX_ITER + 1):
        r_live = mv.sum(axis=1)
        v_live = mv / r_live[:, None]
        mv = np.einsum("nij,nj->ni", mats, v_live)
        residual = np.abs(mv - r_live[:, None] * v_live).sum(axis=1)
        done = residual <= PF_TOL * r_live
        if not done.any():  # nothing to record or cut: the stack stays as it is
            continue
        r[live[done]], v[live[done]], iterations[live[done]] = r_live[done], v_live[done], step
        if done.all():
            break
        live, mats, mv = live[~done], mats[~done], mv[~done]
    else:
        raise ArithmeticError(
            f"power iteration did not converge in {PF_MAX_ITER} steps "
            f"(relative residual {float((residual / r_live).max()):.3e})"
        )
    return PerronData(r, v, iterations)


def level_matrices(floor: FloorCocycle, psis: np.ndarray) -> np.ndarray:
    """M(lambda) at lambda = exp(psi) for each row of psis, shape (N, d, d):
    every edge e adds exp(<psi, f(e)>) to its (source, target) cell."""
    if psis.shape[1:] != (floor.m,):
        raise ValueError(f"psi must have dimension {floor.m}")
    if not np.isfinite(psis).all():
        bad = tuple(psis[np.argmin(np.isfinite(psis).all(axis=1))].tolist())
        raise ValueError(f"psi {bad} is not finite")
    d = floor.diagram.d
    with np.errstate(over="ignore", invalid="ignore"):
        mats = (np.exp(psis @ floor.f.T) @ np.eye(d * d)[floor.cell]).reshape(len(psis), d, d)
    if not np.isfinite(mats).all():
        bad = tuple(psis[np.argmin(np.isfinite(mats).all(axis=(1, 2)))].tolist())
        raise ValueError(f"psi {bad} is out of float range: M(exp psi) overflows a float")
    return mats


def log_masses(psis, pf: PerronData, exponents, targets, lengths) -> np.ndarray:
    """Log-mass <psi, e> + log v_t - k log r, one row per psi of the stack
    that ``pf`` solved and one column per cylinder, given by its exponent
    e = a + S_k f(p), its 0-based target t and its length k."""
    logs = psis @ np.asarray(exponents, dtype=float).T + np.log(pf.vector)[:, targets]
    return logs - np.outer(np.log(pf.eigenvalue), lengths)


def level_counting_matrix(fl: FloorCocycle) -> LaurentMatrix:
    """M(t) held dense: counts[i, j, *n] counts the edges from i to j with
    f(e) = min f + n, at the exponent offset min f."""
    lo = fl.f.min(axis=0)
    counts = np.zeros((fl.diagram.d, fl.diagram.d, *(fl.f.max(axis=0) - lo + 1)), dtype=np.int64)
    np.add.at(counts, (fl.diagram.source, fl.diagram.target, *(fl.f - lo).T), 1)
    return LaurentMatrix(counts, tuple(lo.tolist()))


class MaharamMeasure:
    """Cylinder-measure evaluator for one psi, a stack of one for the core:
    ``perron`` holds the Perron data of M(exp psi) in its row 0.

    Masses are exponentiated once from their logarithm, so no r^k is formed;
    a mass below the smallest positive float (about 4.9e-324) is 0.0.
    """

    def __init__(self, diagram: BratteliDiagram, phi: SkewCocycle, psi):
        self.diagram = diagram
        self.phi = phi
        self.psi = tuple(float(x) for x in psi)
        self.floor = FloorCocycle(diagram, phi)
        self.perron = perron(level_matrices(self.floor, np.array([self.psi])))
        self._log_v = tuple(math.log(x) for x in self.perron.vector[0].tolist())
        self._log_r = math.log(self.perron.eigenvalue[0])

    def _mass(self, exponent, target: int, k: int) -> float:  # lambda^exponent v_target / r^k, target 0-based
        log_mass = self._log_v[target] - k * self._log_r
        for x, e in zip(self.psi, exponent):
            log_mass += x * e
        return math.exp(log_mass)

    def cylinder_measure(self, p: tuple[int, ...], a=None) -> float:
        """Mass of the floor coded by the path p, its edge ids, at fiber offset a."""
        a = zero_vector(self.phi.m) if a is None else tuple(a)
        return self._mass(vec_add(a, self.floor.path_sum(p)), self.diagram.target[p[-1]], len(p))


def invariance_recurrence_check(psis, pf: PerronData, k: int, power: LaurentMatrix) -> np.ndarray:
    """Residual of mu(K_i x {0}) = sum_j sum_a b^k_{ij,a} mu(level-k base j, a),
    worst over i, for each psi of the stack that ``pf`` solved.

    The right side weighs level-k base masses by the coefficients of
    ``power``, the exact (psi-free) k-th power of the level-counting matrix,
    so it exercises the counting route rather than the eigenvector identity.
    Its terms are the nonzero coefficients in the C order of ``power.counts``:
    by cell (i, j), then by exponent.
    """
    i, j, *n = cells = np.nonzero(power.counts)
    exponents = np.transpose(n) + power.offset
    masses = np.exp(log_masses(psis, pf, exponents, j, [k] * len(i))) * power.counts[cells]
    return np.abs(pf.vector - masses @ np.eye(len(power.counts))[i]).max(axis=1)


def recurrence_vector_residual(matrices: np.ndarray, pf: PerronData, k: int) -> np.ndarray:
    """Max-norm of v - M(lambda)^k (r^-k v), the base-mass recurrence, per matrix of the stack."""
    wk = pf.vector / pf.eigenvalue[:, None] ** k
    return np.abs(pf.vector - (np.linalg.matrix_power(matrices, k) @ wk[:, :, None])[:, :, 0]).max(axis=1)


def step_samples(diagram: BratteliDiagram, level: int, samples: int, m: int, seed: int):
    """(samples, k) edge ids of ``random_path_ids`` draws, again while maximal, each
    then given a fiber offset in [-2, 2]^m, (samples, m), by random.Random(seed).

    Each sample is drawn inline on the diagram's ``draw_rows``, whose other
    reader is ``bratteli._draw_chain``: a tower, then ``level`` floors down
    from it, each r of range(n) by ``width`` bits, drawn again while r >= n,
    as rng.randrange draws; a path whose every floor is a top, r == n - 1,
    is maximal and drawn again; a kept path then gets m fiber coordinates,
    each r of range(5) by 3 bits, less 2, as rng.randint(-2, 2) draws them.
    So the values, and the rng state after them, are those of
    ``random_path_ids`` and ``randint``.  The edge ids go target-first into
    one flat list, a maximal path's ``level`` entries are deleted from its
    end, and one array is built and reversed by row at the end.  The
    rejection rule is written here and in ``_draw_chain`` apart: criterion 8
    draws about 60 k samples per ``verify``, and a shared loop costs a call
    per sample, which was most of this function's time.
    """
    if level < 1:  # the empty path is maximal, so every draw would be drawn again
        raise ValueError("level must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    bits, rows = rng.getrandbits, diagram.draw_rows
    d, tower_width = diagram.d, diagram.d.bit_length()
    flat, fibers = [], []
    while len(flat) < samples * level:
        j = bits(tower_width)
        while j >= d:
            j = bits(tower_width)
        maximal = True
        for _ in range(level):
            n, width, first, under = rows[j]
            r = bits(width)
            while r >= n:
                r = bits(width)
            flat.append(first + r)
            maximal = maximal and r == n - 1
            j = under[r]
        if maximal:
            del flat[-level:]
            continue
        for _ in range(m):
            r = bits(3)
            while r >= 5:
                r = bits(3)
            fibers.append(r - 2)
    return np.array(flat).reshape(samples, level)[:, ::-1], np.array(fibers).reshape(samples, m)


def invariance_step_check(
    floor: FloorCocycle, psis, pf: PerronData, seeds, samples: int, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled invariance of cylinder masses under the skewed exchange.

    For each psi of the stack that ``pf`` solved and the ``step_samples``
    (p, a) drawn from its seed, stepped by ``skewed_adic_step`` to (p', a'):
      - mu(p' floor, a') must equal mu(p's floor, a);
      - the base marginal must scale by exp(-<psi, a' - a>) across the step.
    Returns (invariance, quasi_invariance): the worst absolute and relative
    residuals, one per psi.
    """
    target = floor.diagram.target
    worst = []
    for t, seed in enumerate(seeds):
        ids, a = step_samples(floor.diagram, level, samples, floor.m, seed)
        succ, moved = skewed_adic_step(floor, ids, a)
        # column gathers summed: cheaper than f[x].sum(1), and exact, as f is int64
        sums, succ_sums = (sum(floor.f[x[:, c]] for c in range(level)) for x in (ids, succ))
        exponents = np.concatenate((succ_sums + moved, sums + a, sums, succ_sums))
        targets = np.tile(np.concatenate((target[succ[:, -1]], target[ids[:, -1]])), 2)
        one = PerronData(pf.eigenvalue[t:t + 1], pf.vector[t:t + 1], pf.iterations[t:t + 1])
        masses = np.exp(log_masses(psis[t:t + 1], one, exponents, targets, np.full(len(targets), level)))
        lhs, rhs, before, after = masses.reshape(4, samples)
        expected = np.exp(-(moved - a) @ psis[t])
        worst.append((np.abs(lhs - rhs).max(), (np.abs(after / before - expected) / expected).max()))
    return tuple(np.array(worst).reshape(-1, 2).T)


# -- weak-* continuity profiling ----------------------------------------------


@dataclass(frozen=True)
class GridProfile:
    """Measure values over one psi-grid plus the observed adjacent modulus.

    Row i of ``masses`` and ``deltas`` is the i-th point of product(*axes),
    column c is cylinder c; a delta is the largest |measure difference| to a
    grid neighbour one step up one axis.
    """

    step: float
    axes: tuple[tuple[float, ...], ...]
    masses: np.ndarray
    deltas: np.ndarray
    modulus: float


def grid_axis(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    """The steps + 1 points lo + (hi - lo) * i / steps of one grid axis."""
    return tuple(lo + (hi - lo) * i / steps for i in range(steps + 1))


def dyadic_grids(m: int):
    """Axis lists for GRID_REFINEMENTS dyadic refinements of GRID_BOX^m."""
    return [(grid_axis(*GRID_BOX, 2 ** (r + 1)),) * m for r in range(GRID_REFINEMENTS)]


def continuity_profile(fl: FloorCocycle, cylinders, grids) -> list[GridProfile]:
    """Cylinder measures over nested psi-grids with adjacent-point deltas.

    ``cylinders`` is a list of (path, fiber) pairs held fixed across the
    grids; each grid is a tuple of per-coordinate axis tuples.  The modulus
    of a grid is the largest |measure difference| across grid neighbours
    (points differing by one step in one coordinate), maximised over the
    cylinder family.  Each grid is one stack: one M(lambda) per point, one
    Perron call and one array of masses.
    """
    exponents = np.array([vec_add(a, fl.path_sum(p)) for p, a in cylinders]).reshape(-1, fl.m)
    targets = [fl.diagram.target[p[-1]] for p, _ in cylinders]
    lengths = [len(p) for p, _ in cylinders]
    profiles = []
    for axes in grids:
        psis = np.array(list(product(*axes)), dtype=float)
        pf = perron(level_matrices(fl, psis))
        masses = np.exp(log_masses(psis, pf, exponents, targets, lengths))
        grid = masses.reshape(tuple(len(axis) for axis in axes) + (len(cylinders),))
        delta = np.zeros_like(grid)
        for axis in range(fl.m):
            below_top = (slice(None),) * axis + (slice(0, -1),)
            delta[below_top] = np.maximum(delta[below_top], np.abs(np.diff(grid, axis=axis)))
        modulus = float(delta.max()) if delta.size else 0.0
        step = axes[0][1] - axes[0][0] if len(axes[0]) > 1 else 0.0
        profiles.append(GridProfile(step, axes, masses, delta.reshape(masses.shape), modulus))
    return profiles


def default_cylinder_family(diagram: BratteliDiagram, m: int, level: int):
    """Deterministic cylinder family: min and max paths per tower, as edge ids, fiber 0."""
    walks = (diagram.min_path, diagram.max_path)
    return [(walk(level, j), zero_vector(m)) for j in range(1, diagram.d + 1) for walk in walks]


# -- measure tables -------------------------------------------------------------


@dataclass(frozen=True)
class MeasureTable:
    """Cylinder measures at one psi in their rank-one form: the mass of a
    level-k path p at fiber a is exp(path_logs(p) + <psi, a>), with
    path_logs(p) the logarithm of lambda^{S_k f(p)} v_t / r^k.

    The per-path factor is computed for any block of paths, so a table holds
    nothing that grows with the number of paths.
    """

    psi: tuple[float, ...]  # as given: the CSV prints the default zero vector of ints as 0
    level: int
    fibers: tuple[tuple[int, ...], ...]
    floor: FloorCocycle
    pf: PerronData  # of M(exp psi), as a stack of one

    def path_logs(self, ids: np.ndarray) -> np.ndarray:
        """The per-path log factor of each row of a (rows, level) edge-id array."""
        sums = sum(self.floor.f[ids[:, k]] for k in range(self.level))
        targets = self.floor.diagram.target[ids[:, -1]]
        return log_masses(np.array([self.psi]), self.pf, sums, targets, [self.level] * len(ids))[0]

    @property
    def fiber_logs(self) -> np.ndarray:
        """<psi, a> for each fiber a."""
        return np.array(self.fibers) @ np.array(self.psi)


def tower_maxima(floor: FloorCocycle, weights: np.ndarray, level: int) -> np.ndarray:
    """Largest sum of ``weights``, one row per edge, over the level-k paths
    ending at each tower, coordinate by coordinate: (d, columns).

    The largest sums grow one level at a time: edges into a tower have
    consecutive ids, so one ``reduceat`` per level takes the maximum over
    each tower's edges.
    """
    diagram = floor.diagram
    best = np.zeros((diagram.d, weights.shape[1]), dtype=weights.dtype)
    for _ in range(level):
        best = np.maximum.reduceat(best[diagram.source] + weights, diagram.first_ids)
    return best


def path_sum_bound(floor: FloorCocycle, level: int) -> int:
    """Largest |S_k f(p)| over the level-k paths p and the coordinates."""
    return int(max(tower_maxima(floor, floor.f, level).max(), tower_maxima(floor, -floor.f, level).max()))


def build_measure_table(fl: FloorCocycle, psi, level: int) -> MeasureTable:
    """Cylinder masses for every level-k path and a fiber box.

    The fiber box spans the attainable f-sums at this level, which is the
    finite set of fibers a level-k tower can reach from fiber zero.
    A mass is lambda^a times a per-path factor lambda^{S_k f(p)} v_t / r^k;
    the table keeps the two factors apart, as logarithms like every mass.
    A table whose largest mass passes float range is refused; a mass below
    the smallest positive float is 0.0.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    psis = np.array([psi], dtype=float)
    pf = perron(level_matrices(fl, psis))
    bound = path_sum_bound(fl, level)
    # the largest log mass: each tower's largest <psi, S_k f>, then the box's largest <psi, a>
    logs = tower_maxima(fl, fl.f @ psis.T, level)[:, 0] + np.log(pf.vector[0]) - level * np.log(pf.eigenvalue[0])
    if logs.max() + bound * np.abs(psis).sum() > np.log(np.finfo(float).max):
        bad = tuple(psis[0].tolist())
        raise ValueError(f"psi {bad} is out of float range: a level-{level} mass overflows a float")
    fibers = tuple(product(range(-bound, bound + 1), repeat=fl.m))
    return MeasureTable(tuple(psi), level, fibers, fl, pf)
