"""Closed-form cylinder measures on the skew-product.

For a parameter psi the measure of the cylinder "path p, fiber a" is
lambda^(a + S_k f(p)) v[target(p)] / r^k with (r, v) the Perron data of
the level-counting matrix at lambda = exp(psi).  The script evaluates the
formula, verifies invariance under the skewed exchange step numerically,
and prints a slice of the measure table.
"""

import math
import random

import numpy as np

from ietskew.algebra import laurent_matrix_pow, zero_vector
from ietskew.instances import build_instance, load_instance
from ietskew.maharam import (
    MaharamMeasure,
    build_measure_table,
    invariance_recurrence_check,
    invariance_step_check,
    level_counting_matrix,
    level_matrices,
    perron,
    recurrence_vector_residual,
)

built = build_instance(load_instance("genus2_rank2"))
phi = built.phi
print(f"instance {built.name}: fiber rank m = {phi.m}")
print(f"phi = {[list(v) for v in phi.values]}")
print()

psi = (0.4, -0.3)
measure = MaharamMeasure(built.diagram, phi, psi)
print(f"psi = {psi}, lambda = {tuple(round(x, 6) for x in measure.parameter.lam)}")
print(f"Perron eigenvalue of M(lambda): {measure.perron.eigenvalue:.10f}")
print(f"Perron vector (unit mass):      {[round(x, 8) for x in measure.perron.vector]}")
print()

print("fiber-translation scaling: mass(K_i x {a}) = lambda^a * mass(K_i x {0})")
for i in (1, 2):
    log_v = math.log(measure.perron.vector[i - 1])  # K_i is a level-0 cylinder: mass lambda^a v_i
    base, shifted = math.exp(log_v), math.exp(log_v + psi[0])  # fibers 0 and (1, 0)
    print(f"  i={i}: {base:.8f} -> {shifted:.8f} (ratio {shifted / base:.8f})")
print()

print("invariance checks (worst residuals), on a psi stack of one:")
psis = np.array([psi])
matrices = level_matrices(measure.floor, psis)
pf = perron(matrices)
step = invariance_step_check(measure.floor, psis, pf, seeds=[7], samples=500, level=4)
print(f"  skewed-step invariance : {step.invariance_residual[0]:.2e}")
print(f"  quasi-invariance ratio : {step.quasi_invariance_residual[0]:.2e}")
level_matrix = level_counting_matrix(built.floor)
for k in (1, 2, 3):
    counting = invariance_recurrence_check(psis, pf, k, laurent_matrix_pow(level_matrix, k))[0]
    print(
        f"  level-{k} recurrence    : counting {counting:.2e}"
        f" / eigenvector {recurrence_vector_residual(matrices, pf, k)[0]:.2e}"
    )
print()

table = build_measure_table(built.floor, psi, level=2, fiber_bound=1)
edge_strs = built.diagram.labels
cells = sorted(
    ("".join(edge_strs[i] for i in row), fiber, mass)
    for row, masses in zip(table.path_ids.tolist(), table.masses.tolist())
    for fiber, mass in zip(table.fibers, masses)
)
rng = random.Random(3)
print("measure table sample (level 2, fibers in [-1,1]^2):")
for path, fiber, mass in rng.sample(cells, 6):
    print(f"  path {path} fiber {fiber}: {mass:.3e}")
print()

zero = MaharamMeasure(built.diagram, phi, zero_vector(phi.m))
print("psi = 0 reduces to the unskewed picture: Perron vector = interval lengths")
print(f"  lengths: {[round(x, 8) for x in built.lengths.lengths]}")
print(f"  vector : {[round(x, 8) for x in zero.perron.vector]}")
