"""Machine-checkable verification suite for a built instance.

Each check function returns a CheckResult; ``run_verification`` runs them
in dependency order and marks everything after the first failure as
skipped, so a broken instance reports the layer that actually broke rather
than a cascade.  Residuals are included wherever a check is numerical; the
combinatorial checks are exact and report residual 0.0 on success.

Sampling is seeded and the seed is recorded in the result details, so a
report is reproducible from (instance file, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .algebra import laurent_matrix_pow, mat_mul, mat_pow, vec_add, vec_sub, zero_vector
from .bratteli import BratteliDiagram
from .cocycles import (
    CertificateInconclusive,
    FloorCocycle,
    SkewedPathState,
    amplify_for_common_prefix,
    delta_closure_probe,
    recheck_certificate,
    shift_image,
    skewed_adic_step,
    tail_cocycle,
    tail_orbit_witness,
)
from .iet import PrecisionAlarm, TowerSystem, compose_loop, float_orbit_frequencies, pf_lengths, simulate_return_times
from .instances import BuiltInstance
from .maharam import (
    MaharamMeasure,
    continuity_profile,
    default_cylinder_family,
    dyadic_grids,
    invariance_recurrence_check,
    invariance_step_check,
    level_counting_matrix,
    level_matrices,
    perron,
    recurrence_vector_residual,
)
from .skew import SkewCocycle, birkhoff_sum_at_return, check_periodic_type


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | inconclusive | skipped
    residual: float | None = None
    detail: str = ""
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "residual": self.residual,
            "detail": self.detail,
            "runtime": round(self.runtime, 3),
        }


def _timed(name):
    def wrap(fn):
        def inner(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except (AssertionError, PrecisionAlarm, ValueError, ArithmeticError) as exc:
                result = CheckResult(name, "fail", detail=str(exc) or repr(exc))
            except RuntimeError as exc:  # a bound hit before the check could decide
                result = CheckResult(name, "inconclusive", detail=str(exc) or repr(exc))
            result.name = name
            result.runtime = time.perf_counter() - start
            return result

        inner.check_name = name
        return inner

    return wrap


# -- criterion 1 ---------------------------------------------------------------


@_timed("tower_oracle_equivalence")
def check_tower_oracle(built: BuiltInstance, kmax: int = 3, **_) -> CheckResult:
    """Word system from loop substitution equals direct float simulation."""
    for k in range(kmax + 1):
        tower = compose_loop(built.loop, k)
        q, words = simulate_return_times(built.loop.start, built.lengths, k)
        if q != tower.q or words != tower.words:
            return CheckResult(
                "", "fail", detail=f"simulation disagrees at level {k}"
            )
    return CheckResult("", "pass", residual=0.0, detail=f"levels 0..{kmax} exact")


# -- criterion 2 ---------------------------------------------------------------


@_timed("cocycle_identities")
def check_cocycle_identities(built: BuiltInstance, kmax: int = 4, **_) -> CheckResult:
    tower = built.tower
    a1 = tower.matrix
    for k in range(1, kmax + 1):
        tk = compose_loop(built.loop, k)
        if tk.matrix != mat_pow(a1, k):
            return CheckResult("", "fail", detail=f"matrix power identity broken at k={k}")
        if tk.q != tuple(sum(col) for col in zip(*tk.matrix)):
            return CheckResult("", "fail", detail=f"column sums != return times at k={k}")
    phi = built.phi
    for j in range(1, tower.d + 1):
        bs = birkhoff_sum_at_return(tower, phi, j)
        transpose_row = tuple(
            sum(a1[i][j - 1] * phi.values[i][c] for i in range(tower.d))
            for c in range(phi.m)
        )
        if bs != transpose_row:
            return CheckResult("", "fail", detail=f"return-word sum identity broken at j={j}")
    if not check_periodic_type(a1, phi):
        return CheckResult("", "fail", detail="A^T phi = phi failed: not periodic type")
    return CheckResult("", "pass", residual=0.0, detail="exact integer identities hold")


# -- criterion 3 ---------------------------------------------------------------


@_timed("bratteli_dictionary")
def check_bratteli_dictionary(built: BuiltInstance, kmax: int = 3, **_) -> CheckResult:
    diagram = built.diagram
    counts = tuple(
        tuple(diagram.words[j].count(i) for j in range(diagram.d))
        for i in range(1, diagram.d + 1)
    )
    if counts != diagram.matrix:
        return CheckResult("", "fail", detail="edge multiset disagrees with incidence matrix")
    for level in range(1, kmax + 1):
        heights = diagram.heights(level)
        seen = set()
        n_max = n_min = 0
        for p in diagram.enumerate_paths(level):
            fc = diagram.path_to_floor(p)
            key = (fc.tower, fc.height)
            if key in seen or not 0 <= fc.height < heights[fc.tower - 1]:
                return CheckResult("", "fail", detail=f"floor bijection broken at level {level}")
            seen.add(key)
            if diagram.floor_to_path(level, fc.tower, fc.height) != p:
                return CheckResult("", "fail", detail=f"floor inversion broken at level {level}")
            if diagram.is_maximal(p):
                n_max += 1
            elif diagram.path_to_floor(diagram.adic_successor(p)) != type(fc)(
                level, fc.tower, fc.height + 1
            ):
                return CheckResult("", "fail", detail=f"coding identity broken at level {level}")
            if diagram.is_minimal(p):
                n_min += 1
        if len(seen) != sum(heights):
            return CheckResult("", "fail", detail=f"path count != floor count at level {level}")
        if n_max != diagram.d or n_min != diagram.d:
            return CheckResult("", "fail", detail=f"extremal path count wrong at level {level}")
    return CheckResult("", "pass", residual=0.0, detail=f"exhaustive to level {kmax}")


# -- criterion 4 ---------------------------------------------------------------


@_timed("tail_cocycle_identity")
def check_tail_cocycle(built: BuiltInstance, n_paths: int = 1000, seed: int = 0, **_) -> CheckResult:
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle.of(diagram, phi)
    rng = random.Random(seed)
    for _ in range(n_paths):
        p = diagram.random_path(rng.choice([2, 3, 4]), rng)
        while diagram.is_maximal(p):
            p = diagram.random_path(4, rng)
        if tail_cocycle(diagram, p, phi) != phi.of_label(p.source):
            return CheckResult("", "fail", detail=f"tail cocycle != phi at {p}")
    # telescoped form: over n successor steps the tail-cocycle sums match
    # shift sums of f once the shifted paths agree
    level = 9
    for _ in range(60):
        p = diagram.random_path(level, rng)
        if diagram.is_maximal(p):
            continue
        n = rng.randint(1, 20)
        q = p
        total = zero_vector(phi.m)
        ok = True
        for _ in range(n):
            if diagram.is_maximal(q):
                ok = False
                break
            total = vec_add(total, tail_cocycle(diagram, q, phi))
            q = diagram.adic_successor(q)
        if not ok:
            continue
        k = next((k for k in range(level + 1) if p.edges[k:] == q.edges[k:]), None)
        if k is None:
            return CheckResult("", "fail", detail="successor iterates never re-joined")
        if total != vec_sub(fl.path_sum(p, k), fl.path_sum(q, k)):
            return CheckResult("", "fail", detail=f"telescoped sum identity broken (n={n})")
    return CheckResult("", "pass", residual=0.0, detail=f"{n_paths} paths, seed {seed}")


# -- criterion 5 ---------------------------------------------------------------


@_timed("tail_orbit_equivalence")
def check_tail_orbit(built: BuiltInstance, witness_samples: int = 150, seed: int = 0, **_) -> CheckResult:
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle.of(diagram, phi)
    depth = 2
    rng = random.Random(seed)
    for j in range(1, diagram.d + 1):
        height = diagram.heights(depth)[j - 1]
        state = SkewedPathState(diagram.min_path(depth, j), zero_vector(phi.m))
        img0 = shift_image(fl, state, depth)
        chain = [state]
        for _ in range(height - 1):
            state = skewed_adic_step(diagram, state, phi)
            if shift_image(fl, state, depth) != img0:
                return CheckResult(
                    "", "fail", detail=f"orbit left its shift class in tower {j}"
                )
            chain.append(state)
        if not diagram.is_maximal(chain[-1].path):
            return CheckResult("", "fail", detail=f"tower {j} orbit ended early")
        # the chain exhausts the skew tower: every floor pair is connected by
        # construction; validate the witness search itself on sampled pairs
        pairs = (
            [(a, b) for a in range(height) for b in range(height)]
            if height <= 22
            else [(rng.randrange(height), rng.randrange(height)) for _ in range(witness_samples)]
        )
        for a, b in pairs:
            if tail_orbit_witness(diagram, chain[a], chain[b], phi, depth) != b - a:
                return CheckResult("", "fail", detail=f"witness failed in tower {j}")
    return CheckResult("", "pass", residual=0.0, detail="level-2 towers exhausted")


# -- criterion 6 ---------------------------------------------------------------


@_timed("aperiodicity_certificate")
def check_certificate(built: BuiltInstance, probe_samples: int = 100, seed: int = 0, **_) -> CheckResult:
    try:
        cert = amplify_for_common_prefix(built.loop, built.phi)
    except CertificateInconclusive as exc:
        return CheckResult("", "inconclusive", detail=str(exc))
    if not cert.verdict:
        return CheckResult("", "fail", detail=f"lattice test failed: factors {cert.factors}")
    if set(cert.generators) != set(built.phi.values):
        return CheckResult("", "fail", detail="generators differ from cocycle values")
    if not recheck_certificate(built.loop, built.phi, cert):
        return CheckResult("", "fail", detail="stored certificate failed re-validation")
    if not delta_closure_probe(built.diagram, built.phi, cert.generators, probe_samples, seed):
        return CheckResult("", "fail", detail="sampled Birkhoff difference left the lattice")
    return CheckResult(
        "",
        "pass",
        residual=0.0,
        detail=f"exponent {cert.exponent}, M={cert.prefix_length}, probe {probe_samples} ok",
    )


# -- criterion 7 ---------------------------------------------------------------


@_timed("level_counting_cocycle")
def check_level_counting(built: BuiltInstance, kmax: int = 4, **_) -> CheckResult:
    diagram, phi = built.diagram, built.phi
    mat = level_counting_matrix(diagram, phi)
    at_one = mat.evaluate((1.0,) * phi.m)
    if [tuple(round(x) for x in row) for row in at_one] != list(diagram.matrix):
        return CheckResult("", "fail", detail="matrix at t=1 differs from incidence")
    fl = FloorCocycle.of(diagram, phi)
    source, target = diagram.edge_arrays[:2]
    lo, hi = fl.f.min(axis=0), fl.f.max(axis=0)
    mk, ak = mat, diagram.matrix
    n_paths = 0
    for k in range(1, kmax + 1):
        if k > 1:
            mk, ak = mk * mat, mat_mul(ak, diagram.matrix)
        # one dense count per (source, target, S_k f - k lo), over every path
        counts = np.zeros((diagram.d, diagram.d) + tuple(k * (hi - lo) + 1), dtype=np.int64)
        for ids in diagram.path_blocks(k):
            sums = fl.f[ids].sum(axis=1) - k * lo
            np.add.at(counts, (source[ids[:, 0]], target[ids[:, -1]], *sums.T), 1)
        n_paths += int(counts.sum())
        for i in range(diagram.d):
            for j in range(diagram.d):
                entry, cell = mk[i, j], counts[i, j]
                found = zip(np.argwhere(cell) + k * lo, cell[cell > 0].tolist())
                if entry.terms != {tuple(a.tolist()): n for a, n in found}:
                    return CheckResult(
                        "", "fail", detail=f"coefficients disagree with paths at k={k}"
                    )
                if sum(entry.terms.values()) != ak[i][j]:
                    return CheckResult(
                        "", "fail", detail=f"coefficient totals != incidence power at k={k}"
                    )
    return CheckResult(
        "", "pass", residual=0.0, detail=f"coefficient-exact to k={kmax} over {n_paths} paths"
    )


# -- criterion 8 ---------------------------------------------------------------


@_timed("maharam_invariance")
def check_maharam(
    built: BuiltInstance,
    n_psi: int = 20,
    n_cylinders: int = 1000,
    kmax: int = 5,
    seed: int = 0,
    **_,
) -> CheckResult:
    diagram, phi = built.diagram, built.phi
    fl = FloorCocycle.of(diagram, phi)
    rng = random.Random(seed)  # each psi, then the seed of its samples
    draws = [([rng.uniform(-1.0, 1.0) for _ in range(phi.m)], rng.randrange(2 ** 30)) for _ in range(n_psi)]
    psis = np.array([psi for psi, _ in draws]).reshape(n_psi, phi.m)
    matrices = level_matrices(fl, psis)
    pf = perron(matrices)
    step = invariance_step_check(fl, psis, pf, [s for _, s in draws], samples=n_cylinders, level=kmax)
    power = laurent_matrix_pow(level_counting_matrix(diagram, phi), min(3, kmax))
    recurrence = [recurrence_vector_residual(matrices, pf, k) for k in range(1, kmax + 1)]
    recurrence.append(invariance_recurrence_check(psis, pf, min(3, kmax), power))
    residuals = np.array([step.invariance_residual, step.quasi_invariance_residual, np.max(recurrence, 0)])
    worst = np.maximum.accumulate(residuals.max(axis=0))  # running worst over psi; NaN stays NaN
    detail = "step {:.2e}, quasi {:.2e}, recurrence {:.2e}".format(*residuals.max(axis=1))
    detail += f", Perron <= {pf.iterations.max()} iterations"
    t = int(np.argmin(worst <= 1e-10))  # the first psi over the bound, if any
    if not worst[t] <= 1e-10:
        return CheckResult("", "fail", float(worst[t]), f"residual above 1e-10 at psi #{t}; {detail}")
    detail = f"{n_psi} psi x {n_cylinders} cylinders, seed {seed}; {detail}"
    return CheckResult("", "pass", float(worst[-1]), detail)


# -- criterion 9 ---------------------------------------------------------------


@_timed("psi_zero_consistency")
def check_psi_zero(built: BuiltInstance, orbit_steps: int = 1_000_000, **_) -> CheckResult:
    measure = MaharamMeasure(built.diagram, built.phi, zero_vector(built.phi.m))
    lengths = pf_lengths(built.tower.matrix)
    worst = max(
        abs(a - b) for a, b in zip(measure.perron.vector, lengths.lengths)
    )
    if worst > 1e-10:
        return CheckResult("", "fail", residual=worst, detail="PF vector mismatch at psi=0")
    freqs = float_orbit_frequencies(built.loop.start, lengths, orbit_steps)
    orbit_err = max(abs(f - v) for f, v in zip(freqs, measure.perron.vector))
    if orbit_err > 5e-3:
        return CheckResult("", "fail", residual=orbit_err, detail="orbit frequencies off")
    return CheckResult(
        "",
        "pass",
        residual=worst,
        detail=f"PF match {worst:.2e}; orbit ({orbit_steps} steps) off by {orbit_err:.2e}",
    )


# -- criterion 10 --------------------------------------------------------------


@_timed("continuity_modulus")
def check_continuity(built: BuiltInstance, level: int = 4, refinements: int = 3, **_) -> CheckResult:
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=level)
    grids = dyadic_grids(built.phi.m, refinements=refinements)
    profiles = continuity_profile(built.diagram, built.phi, cylinders, grids)
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
    corrupt = object.__new__(TowerSystem)
    object.__setattr__(corrupt, "d", tower.d)
    object.__setattr__(corrupt, "matrix", tower.matrix)
    object.__setattr__(corrupt, "words", tuple(tuple(w) for w in words))
    object.__setattr__(corrupt, "q", tower.q)
    return corrupt


@_timed("fault_injection")
def check_fault_injection(built: BuiltInstance, **_) -> CheckResult:
    """Perturbations must surface at their own layer, gating the rest."""
    values = [list(v) for v in built.phi.values]
    values[0][0] += 1
    bad_phi = SkewCocycle(values)
    report = run_layers(
        built.with_phi(bad_phi),
        [check_cocycle_identities, check_bratteli_dictionary, check_tail_cocycle],
    )
    statuses = [r.status for r in report]
    if statuses != ["fail", "skipped", "skipped"]:
        return CheckResult("", "fail", detail=f"phi fault gave {statuses}")
    corrupt = _tower_with_swapped_letters(built.tower)
    corrupted = built.with_diagram(BratteliDiagram(corrupt))
    report = run_layers(corrupted, [check_bratteli_dictionary, check_tail_orbit])
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


def run_layers(built: BuiltInstance, checks, **kwargs) -> list[CheckResult]:
    """Run checks in order; after the first failure everything is skipped."""
    results: list[CheckResult] = []
    failed = False
    for fn in checks:
        if failed:
            results.append(CheckResult(fn.check_name, "skipped", detail="earlier layer failed"))
            continue
        result = fn(built, **kwargs)
        results.append(result)
        if result.status == "fail":
            failed = True
    return results


def run_verification(built: BuiltInstance, seed: int = 0, **kwargs) -> list[CheckResult]:
    return run_layers(built, ALL_CHECKS, seed=seed, **kwargs)
