import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from ietskew import maharam
from ietskew.algebra import laurent_matrix_pow, vec_add, zero_vector
from ietskew.cocycles import FloorCocycle
from ietskew.iet import pf_lengths
from ietskew.maharam import (
    PF_MAX_ITER,
    PF_TOL,
    MaharamMeasure,
    build_measure_table,
    continuity_profile,
    default_cylinder_family,
    dyadic_grids,
    invariance_recurrence_check,
    invariance_step_check,
    level_counting_matrix,
    perron,
    recurrence_vector_residual,
)
from ietskew.skew import SkewCocycle


def path_count_coefficients(diagram, phi, k):
    """Independent oracle: enumerate level-k paths and bucket their f-sums."""
    fl = FloorCocycle(diagram, phi)
    counts = Counter()
    for p in diagram.enumerate_paths(k):
        counts[(p.source, p.target, fl.path_sum(p))] += 1
    return counts


def test_perron_basic():
    data = perron([[1.0, 1.0], [1.0, 1.0]])
    assert data.eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert data.vector == pytest.approx((0.5, 0.5), abs=1e-12)
    with pytest.raises(ValueError):
        perron([[1.0, 0.0], [0.0, 1.0]])
    # a stack is solved matrix by matrix, each with its own iteration count
    stack = perron([[[1.0, 1.0], [1.0, 1.0]], [[3.0, 1.0], [1.0, 1.0]]])
    assert stack.eigenvalue == pytest.approx([2.0, 2.0 + math.sqrt(2)], abs=1e-12)
    assert stack.vector[1] == pytest.approx([0.5 ** 0.5, 1 - 0.5 ** 0.5], abs=1e-12)
    assert stack.iterations[0] == data.iterations < stack.iterations[1]


def test_perron_stop_is_relative_to_the_eigenvalue(golden):
    # r is about 1e13 at psi=30, so an absolute 1e-13 residual is out of reach
    measure = MaharamMeasure(golden.diagram, golden.phi, (30.0,))
    pf = measure.perron
    assert pf.eigenvalue > 1e12 and pf.iterations < PF_MAX_ITER
    v = np.array(pf.vector)
    residual = np.abs(measure.matrix_at_lam @ v - pf.eigenvalue * v).sum()
    assert residual <= PF_TOL * pf.eigenvalue


def test_level_counting_matrix_at_one_is_incidence(built):
    mat = level_counting_matrix(built.diagram, built.phi)
    ones = (1.0,) * built.phi.m
    evaluated = mat.evaluate(ones)
    for i in range(built.tower.d):
        for j in range(built.tower.d):
            assert evaluated[i][j] == pytest.approx(built.tower.matrix[i][j], abs=0)


def test_level_counting_zero_cocycle_degenerate(built):
    zero_phi = SkewCocycle(
        tuple((0,) for _ in range(built.tower.d)), check_generates=False
    )
    mat = level_counting_matrix(built.diagram, zero_phi)
    for i in range(built.tower.d):
        for j in range(built.tower.d):
            entry = mat[i, j]
            assert set(entry.terms) <= {(0,)}
            assert entry.coefficient((0,)) == built.tower.matrix[i][j]


def test_matrix_power_counts_paths_exhaustively(built):
    mat = level_counting_matrix(built.diagram, built.phi)
    kmax = 4 if built.name == "golden_triple" else 3
    for k in range(1, kmax + 1):
        oracle = path_count_coefficients(built.diagram, built.phi, k)
        mk = laurent_matrix_pow(mat, k)
        for i in range(1, built.tower.d + 1):
            for j in range(1, built.tower.d + 1):
                entry = mk[i - 1, j - 1]
                from_oracle = {
                    a: c for (s, t, a), c in oracle.items() if s == i and t == j
                }
                assert entry.terms == from_oracle
                # row sums of coefficients reproduce the incidence power
                total = sum(entry.terms.values())
                from ietskew.algebra import mat_pow

                assert total == mat_pow(built.tower.matrix, k)[i - 1][j - 1]


def test_b_counts_edge_weights(built):
    mat = level_counting_matrix(built.diagram, built.phi)
    fl = FloorCocycle(built.diagram, built.phi)
    for e in built.diagram.edges():
        a = fl.of_edge(e)
        count = sum(
            1
            for e2 in built.diagram.edges()
            if e2.source == e.source and e2.tower == e.tower and fl.of_edge(e2) == a
        )
        assert mat[e.source - 1, e.tower - 1].coefficient(a) == count


def test_psi_zero_reduces_to_incidence_pf(built):
    measure = MaharamMeasure(built.diagram, built.phi, zero_vector(built.phi.m))
    lengths = pf_lengths(built.tower.matrix)
    assert measure.perron.eigenvalue == pytest.approx(lengths.alpha, abs=1e-10)
    for a, b in zip(measure.perron.vector, lengths.lengths):
        assert a == pytest.approx(b, abs=1e-10)


def test_cylinder_measure_base_cases(built):
    rng = random.Random(9)
    psi = tuple(rng.uniform(-1, 1) for _ in range(built.phi.m))
    measure = MaharamMeasure(built.diagram, built.phi, psi)
    v = measure.perron.vector
    # level-0 normalisation: fiber-zero slice has unit mass
    assert sum(measure.base_mass(i) for i in range(1, built.tower.d + 1)) == pytest.approx(
        1.0, abs=1e-12
    )
    # fiber shift multiplies by lambda^a
    a = tuple(1 for _ in range(built.phi.m))
    for i in range(1, built.tower.d + 1):
        lam_a = math.prod(lam ** x for lam, x in zip(measure.parameter.lam, a))
        assert measure.base_mass(i, a) == pytest.approx(lam_a * v[i - 1], rel=1e-12)
    # all-minimal path has zero f-sum: mass v_j / r^k
    for j in range(1, built.tower.d + 1):
        p = built.diagram.min_path(3, j)
        assert measure.cylinder_measure(p) == pytest.approx(
            v[j - 1] / measure.perron.eigenvalue ** 3, rel=1e-12
        )


def test_cylinder_measure_deep_levels_underflow_to_zero(golden):
    # r is about 5.9 at psi=0.3, so r^400 overflows a float; the mass does not
    measure = MaharamMeasure(golden.diagram, golden.phi, (0.3,))
    r = measure.perron.eigenvalue
    shallow = measure.cylinder_measure(golden.diagram.min_path(200, 1))
    deep = measure.cylinder_measure(golden.diagram.min_path(400, 1))
    assert 0.0 < deep == pytest.approx(shallow / r ** 200, rel=1e-9)
    assert measure.cylinder_measure(golden.diagram.min_path(800, 1)) == 0.0


def test_invariance_recurrence(built):
    rng = random.Random(10)
    mat = level_counting_matrix(built.diagram, built.phi)
    powers = {k: laurent_matrix_pow(mat, k) for k in (1, 2, 3)}
    for psi in [zero_vector(built.phi.m)] + [
        tuple(rng.uniform(-1, 1) for _ in range(built.phi.m)) for _ in range(3)
    ]:
        measure = MaharamMeasure(built.diagram, built.phi, psi)
        for k in (1, 2, 3):
            assert invariance_recurrence_check(measure, k, powers[k]) <= 1e-10
            assert recurrence_vector_residual(measure, k) <= 1e-10


def test_invariance_step_and_quasi_invariance(built):
    rng = random.Random(11)
    for _ in range(3):
        psi = tuple(rng.uniform(-1, 1) for _ in range(built.phi.m))
        measure = MaharamMeasure(built.diagram, built.phi, psi)
        result = invariance_step_check(measure, samples=300, level=4, seed=5)
        assert result.invariance_residual <= 1e-10
        assert result.quasi_invariance_residual <= 1e-10


def test_continuity_profile_modulus_decreases(built):
    grids = dyadic_grids(built.phi.m, refinements=3)
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=3)
    profiles = continuity_profile(built.diagram, built.phi, cylinders, grids)
    moduli = [p.modulus for p in profiles]
    assert moduli[0] > moduli[1] > moduli[2] > 0
    steps = [p.step for p in profiles]
    assert steps == [1.0, 0.5, 0.25]


def test_continuity_profile_identical_points_zero_delta(built):
    grids = [((0.3,) * 1,) * built.phi.m]  # single point per axis
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=2)
    profiles = continuity_profile(built.diagram, built.phi, cylinders, grids)
    assert profiles[0].modulus == 0.0


def eigen_reference_masses(diagram, phi, level_matrix, cylinders, psi):
    """Masses at one psi from LAPACK's Perron pair of M(lambda) and the
    closed form lambda^(a + S_k f(p)) v_t / r^k, without the batched core."""
    lam = [math.exp(x) for x in psi]
    values, vectors = np.linalg.eig(np.array(level_matrix.evaluate(lam)))
    top = np.argmax(values.real)
    r, v = values[top].real, np.abs(vectors[:, top].real)
    v = v / v.sum()
    fl = FloorCocycle(diagram, phi)
    return [
        math.prod(x ** e for x, e in zip(lam, vec_add(a, fl.path_sum(p))))
        * v[p.target - 1]
        / r ** len(p)
        for p, a in cylinders
    ]


def test_continuity_profile_matches_eigen_reference(built):
    m = built.phi.m
    level_matrix = level_counting_matrix(built.diagram, built.phi)
    cylinders = default_cylinder_family(built.diagram, m, level=4)
    grids = dyadic_grids(m, refinements=3) + [((0.3,),) * m]  # last: one point per axis
    profiles = continuity_profile(built.diagram, built.phi, cylinders, grids)
    for axes, profile in zip(grids, profiles):
        points = list(product(*axes))
        rows = {(row["psi"], row["cylinder_id"]): row for row in profile.rows}
        assert len(rows) == len(profile.rows) == len(points) * len(cylinders)
        for point in points:
            want = eigen_reference_masses(built.diagram, built.phi, level_matrix, cylinders, point)
            for c_idx, mass in enumerate(want):
                assert rows[(point, c_idx)]["measure"] == pytest.approx(mass, rel=1e-12, abs=0)
        # a delta is the largest change to a neighbour one step up one axis
        for (point, c_idx), row in rows.items():
            ups = [
                point[:i] + (axis[axis.index(x) + 1],) + point[i + 1 :]
                for i, (axis, x) in enumerate(zip(axes, point))
                if axis.index(x) + 1 < len(axis)
            ]
            assert row["adjacent_delta"] == max(
                (abs(rows[(up, c_idx)]["measure"] - row["measure"]) for up in ups), default=0.0
            )
        assert profile.modulus == max(row["adjacent_delta"] for row in profile.rows)


def test_continuity_profile_one_perron_call_per_grid(rank2, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(maharam, "perron", counted("perron", maharam.perron))
    monkeypatch.setattr(
        maharam, "level_counting_matrix", counted("laurent", maharam.level_counting_matrix)
    )
    monkeypatch.setattr(
        MaharamMeasure, "__init__", counted("measure", MaharamMeasure.__init__)
    )
    axis = tuple(-1.0 + i / 8 for i in range(17))
    cylinders = default_cylinder_family(rank2.diagram, 2, level=4)
    (profile,) = continuity_profile(rank2.diagram, rank2.phi, cylinders, [(axis, axis)])
    assert len(profile.rows) == 17 * 17 * len(cylinders)
    assert calls == Counter(perron=1)


def test_measure_table(golden):
    table = build_measure_table(golden.diagram, golden.phi, (0.2,), level=2)
    assert table.level == 2
    # every level-2 path appears with the full fiber box
    n_paths = sum(1 for _ in golden.diagram.enumerate_paths(2))
    fibers = set(table.fibers)
    assert len(fibers) == len(table.fibers)
    assert table.path_ids.shape == (n_paths, 2)
    assert table.masses.shape == (n_paths, len(fibers))
    assert (table.masses >= 0).all()
    bound = max(abs(a[0]) for a in fibers)
    fl = FloorCocycle(golden.diagram, golden.phi)
    max_sum = max(
        max(abs(x) for x in fl.path_sum(p)) for p in golden.diagram.enumerate_paths(2)
    )
    assert bound == max_sum


def test_measure_table_respects_explicit_bound(golden):
    table = build_measure_table(golden.diagram, golden.phi, (0.0,), level=1, fiber_bound=1)
    fibers = set(table.fibers)
    assert fibers == {(-1,), (0,), (1,)}
