import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from ietskew import maharam
from ietskew.algebra import LaurentMatrix, laurent_array_mul, laurent_matrix_pow, mat_pow, vec_add, zero_vector
from ietskew.cocycles import FloorCocycle, skewed_adic_step
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
    level_matrices,
    path_sum_bound,
    perron,
    recurrence_vector_residual,
)
from laurent_reference import brute_product, evaluate, grid


def path_count_coefficients(diagram, phi, k):
    """Independent oracle: enumerate level-k paths and bucket their f-sums."""
    fl = FloorCocycle(diagram, phi)
    counts = Counter()
    for p in diagram.enumerate_paths(k):
        counts[(int(diagram.source[p[0]]) + 1, int(diagram.target[p[-1]]) + 1, fl.path_sum(p))] += 1
    return counts


def base_mass(measure, i, a=None):
    """Mass of the level-0 cylinder K_i x {a}: lambda^a v_i."""
    return measure._mass(zero_vector(measure.phi.m) if a is None else a, i - 1, 0)


def test_perron_basic():
    data = perron([[[1.0, 1.0], [1.0, 1.0]]])
    assert data.eigenvalue[0] == pytest.approx(2.0, abs=1e-12)
    assert data.vector[0] == pytest.approx((0.5, 0.5), abs=1e-12)
    with pytest.raises(ValueError):
        perron([[[1.0, 0.0], [0.0, 1.0]]])
    # a stack is solved matrix by matrix, each with its own iteration count
    stack = perron([[[1.0, 1.0], [1.0, 1.0]], [[3.0, 1.0], [1.0, 1.0]]])
    assert stack.eigenvalue == pytest.approx([2.0, 2.0 + math.sqrt(2)], abs=1e-12)
    assert stack.vector[1] == pytest.approx([0.5 ** 0.5, 1 - 0.5 ** 0.5], abs=1e-12)
    assert stack.iterations[0] == data.iterations[0] < stack.iterations[1]


def test_perron_refuses_a_single_matrix():
    # one matrix is a stack of one, shape (1, d, d); there is no scalar form
    with pytest.raises(ValueError, match=r"shape \(N, d, d\)"):
        perron([[1.0, 1.0], [1.0, 1.0]])


def test_perron_of_an_empty_stack_is_empty(monkeypatch):
    # with one step allowed, a stack that is iterated fails at once instead of after 100,000 steps
    monkeypatch.setattr(maharam, "PF_MAX_ITER", 1)
    data = perron(np.zeros((0, 3, 3)))
    assert data.eigenvalue.shape == data.iterations.shape == (0,) and data.vector.shape == (0, 3)


def test_perron_stack_equals_each_matrix_alone(rank2):
    # on a 5x5 psi grid the matrices stop after 9 to 12 steps, so the stack shrinks mid-run
    axis = np.linspace(-1.0, 1.0, 5)
    matrices = level_matrices(rank2.floor, np.array(list(product(axis, axis))))
    stacked = perron(matrices)
    assert len(set(stacked.iterations.tolist())) > 2
    for t, matrix in enumerate(matrices):
        alone = perron(matrix[None])
        assert np.array_equal(stacked.eigenvalue[t], alone.eigenvalue[0])
        assert np.array_equal(stacked.vector[t], alone.vector[0])
        assert np.array_equal(stacked.iterations[t], alone.iterations[0])


def test_perron_stop_is_relative_to_the_eigenvalue(golden):
    # r is about 1e13 at psi=30, so an absolute 1e-13 residual is out of reach
    measure = MaharamMeasure(golden.diagram, golden.phi, (30.0,))
    pf = measure.perron
    r, v = pf.eigenvalue[0], pf.vector[0]
    assert r > 1e12 and pf.iterations[0] < PF_MAX_ITER
    matrix = level_matrices(measure.floor, np.array([measure.psi]))[0]
    residual = np.abs(matrix @ v - r * v).sum()
    assert residual <= PF_TOL * r


def test_level_counting_matrix_at_one_is_incidence(built):
    # M(1, ..., 1) is each cell's coefficient total, exactly
    mat = level_counting_matrix(built.floor)
    totals = [[sum(cell.terms.values()) for cell in row] for row in mat.entries]
    assert totals == [list(row) for row in built.tower.matrix]
    assert mat.offset == tuple(built.floor.f.min(axis=0).tolist())


def test_matrix_power_counts_paths_exhaustively(built):
    mat = level_counting_matrix(built.floor)
    kmax = 4 if built.name == "golden_triple" else 3
    for k in range(1, kmax + 1):
        oracle = path_count_coefficients(built.diagram, built.phi, k)
        entries = laurent_matrix_pow(mat, k).entries
        for i in range(1, built.tower.d + 1):
            for j in range(1, built.tower.d + 1):
                entry = entries[i - 1][j - 1]
                from_oracle = {
                    a: c for (s, t, a), c in oracle.items() if s == i and t == j
                }
                assert entry.terms == from_oracle
                # row sums of coefficients reproduce the incidence power
                total = sum(entry.terms.values())
                assert total == mat_pow(built.tower.matrix, k)[i - 1][j - 1]


def test_dense_counting_powers_equal_the_laurent_powers(built):
    # M(t)^k for k = 0..4 by repeated products from M^0 = I at offset 0,
    # against the square-and-multiply power, array for array
    mat = level_counting_matrix(built.floor)
    d, m = built.diagram.d, built.m
    power = LaurentMatrix(np.eye(d, dtype=np.int64).reshape(d, d, *[1] * m), (0,) * m)
    for k in range(5):
        if k:
            power = laurent_array_mul(power, mat)
        assert power.counts.dtype == np.int64
        assert power.offset == tuple((k * built.floor.f.min(axis=0)).tolist())
        laurent = laurent_matrix_pow(mat, k)
        assert laurent.offset == power.offset and np.array_equal(laurent.counts, power.counts)


def test_a_counting_power_past_int64_is_refused(golden):
    # A^25 is the first power whose entry sum passes 2**63.  The refusal
    # bounds M^8 * M^16 by the product of their totals, which passes 2**63
    # as well, so k = 24 is refused too; each power up to k = 23 is exact,
    # each checked against the Python-int product of the one before and M
    a = golden.tower.matrix
    assert sum(map(sum, mat_pow(a, 24))) < 2 ** 63 <= sum(map(sum, mat_pow(a, 25)))
    mat = level_counting_matrix(golden.floor)
    for k in (24, 25):
        with pytest.raises(OverflowError):
            laurent_matrix_pow(mat, k)
    power = mat
    for k in range(2, 24):
        step = laurent_matrix_pow(mat, k)
        assert grid(step) == brute_product(power, mat)
        power = step
    assert power.counts.reshape(3, 3, -1).sum(axis=2).tolist() == [list(row) for row in mat_pow(a, 23)]


def test_b_counts_edge_weights(built):
    mat = level_counting_matrix(built.floor)
    fl = FloorCocycle(built.diagram, built.phi)
    # (source, target) of each edge id from the return words, with its f-value
    cells = [(w[l], j) for j, w in enumerate(built.diagram.words, 1) for l in range(len(w))]
    edges = [(s, t, tuple(a)) for (s, t), a in zip(cells, fl.f.tolist())]
    entries = mat.entries
    for s, t, a in edges:
        assert entries[s - 1][t - 1].terms.get(a, 0) == edges.count((s, t, a))


def test_psi_zero_reduces_to_incidence_pf(built):
    measure = MaharamMeasure(built.diagram, built.phi, zero_vector(built.phi.m))
    lengths = pf_lengths(built.tower.matrix)
    assert measure.perron.eigenvalue[0] == pytest.approx(lengths.alpha, abs=1e-10)
    for a, b in zip(measure.perron.vector[0], lengths.lengths):
        assert a == pytest.approx(b, abs=1e-10)


def test_cylinder_measure_base_cases(built):
    rng = random.Random(9)
    psi = tuple(rng.uniform(-1, 1) for _ in range(built.phi.m))
    measure = MaharamMeasure(built.diagram, built.phi, psi)
    v = measure.perron.vector[0]
    # level-0 normalisation: fiber-zero slice has unit mass
    assert sum(base_mass(measure, i) for i in range(1, built.tower.d + 1)) == pytest.approx(
        1.0, abs=1e-12
    )
    # fiber shift multiplies by lambda^a
    a = tuple(1 for _ in range(built.phi.m))
    for i in range(1, built.tower.d + 1):
        lam_a = math.prod(lam ** x for lam, x in zip(map(math.exp, measure.psi), a))
        assert base_mass(measure, i, a) == pytest.approx(lam_a * v[i - 1], rel=1e-12)
    # all-minimal path has zero f-sum: mass v_j / r^k
    for j in range(1, built.tower.d + 1):
        p = built.diagram.min_path(3, j)
        assert measure.cylinder_measure(p) == pytest.approx(
            v[j - 1] / measure.perron.eigenvalue[0] ** 3, rel=1e-12
        )


def test_cylinder_measure_deep_levels_underflow_to_zero(golden):
    # r is about 5.9 at psi=0.3, so r^400 overflows a float; the mass does not
    measure = MaharamMeasure(golden.diagram, golden.phi, (0.3,))
    r = measure.perron.eigenvalue[0]
    shallow = measure.cylinder_measure(golden.diagram.min_path(200, 1))
    deep = measure.cylinder_measure(golden.diagram.min_path(400, 1))
    assert 0.0 < deep == pytest.approx(shallow / r ** 200, rel=1e-9)
    assert measure.cylinder_measure(golden.diagram.min_path(800, 1)) == 0.0


def stack(built, psis):
    """M(lambda) and Perron data of a psi stack."""
    psis = np.array(psis, dtype=float).reshape(-1, built.phi.m)
    matrices = level_matrices(built.floor, psis)
    return psis, matrices, perron(matrices)


def test_invariance_recurrence(built):
    rng = random.Random(10)
    mat = level_counting_matrix(built.floor)
    powers = {k: laurent_matrix_pow(mat, k) for k in (1, 2, 3)}
    psis, matrices, pf = stack(
        built,
        [zero_vector(built.phi.m)]
        + [tuple(rng.uniform(-1, 1) for _ in range(built.phi.m)) for _ in range(3)],
    )
    for k in (1, 2, 3):
        assert (invariance_recurrence_check(psis, pf, k, powers[k]) <= 1e-10).all()
        assert (recurrence_vector_residual(matrices, pf, k) <= 1e-10).all()


def test_invariance_recurrence_matches_scalar_masses(built):
    # the counting sum from per-measure base masses, one psi at a time
    power = laurent_matrix_pow(level_counting_matrix(built.floor), 2)
    entries = power.entries
    psis, matrices, pf = stack(built, [(0.3,) * built.phi.m, (-0.7,) * built.phi.m])
    for t, psi in enumerate(psis):
        measure = MaharamMeasure(built.diagram, built.phi, psi)
        worst = 0.0
        for i in range(built.diagram.d):
            rhs = sum(
                count * base_mass(measure, j + 1, a) / measure.perron.eigenvalue[0] ** 2
                for j in range(built.diagram.d)
                for a, count in entries[i][j].terms.items()
            )
            worst = max(worst, abs(base_mass(measure, i + 1) - rhs))
        assert invariance_recurrence_check(psis, pf, 2, power)[t] == pytest.approx(worst, abs=1e-15)
        lam_k = np.linalg.matrix_power(level_matrices(measure.floor, np.array([measure.psi]))[0], 2)
        v, r = measure.perron.vector[0], measure.perron.eigenvalue[0]
        expected = np.abs(v - lam_k @ (v / r ** 2)).max()
        assert recurrence_vector_residual(matrices, pf, 2)[t] == pytest.approx(expected, abs=1e-15)


def test_invariance_step_and_quasi_invariance(built):
    rng = random.Random(11)
    psis, _, pf = stack(built, [tuple(rng.uniform(-1, 1) for _ in range(built.phi.m)) for _ in range(3)])
    floor = built.floor
    invariance, quasi = invariance_step_check(floor, psis, pf, seeds=[5, 6, 7], samples=300, level=4)
    assert invariance.shape == quasi.shape == (3,)
    assert (invariance <= 1e-10).all()
    assert (quasi <= 1e-10).all()


def reference_samples(diagram, level, samples, m, seed):
    """The per-sample draw: random_path_ids, again while maximal, then a fiber."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        p = tuple(diagram.random_path_ids(level, rng))
        while diagram.is_maximal(p):
            p = tuple(diagram.random_path_ids(level, rng))
        out.append((p, tuple(rng.randint(-2, 2) for _ in range(m))))
    return out


@pytest.mark.parametrize("level", [1, 5])
def test_step_check_steps_the_per_sample_draws(built, monkeypatch, level):
    # at level 1 a maximal path is drawn often, so a missed redraw shows
    stepped = []

    def spy(floor, ids, fiber):
        stepped.append((ids.tolist(), fiber.tolist()))
        return skewed_adic_step(floor, ids, fiber)

    monkeypatch.setattr(maharam, "skewed_adic_step", spy)
    psis, _, pf = stack(built, [(0.2,) * built.phi.m, (-0.4,) * built.phi.m])
    invariance_step_check(built.floor, psis, pf, seeds=[3, 12345], samples=300, level=level)
    for (ids, fibers), seed in zip(stepped, (3, 12345), strict=True):
        reference = reference_samples(built.diagram, level, 300, built.phi.m, seed)
        assert ids == [list(p) for p, _ in reference]
        assert fibers == [list(a) for _, a in reference]


def test_step_samples_refuse_level_zero(golden):
    # the empty path is maximal, so a level-0 draw would be drawn again forever
    psis = np.zeros((1, 1))
    with pytest.raises(ValueError, match="level must be at least 1"):
        invariance_step_check(golden.floor, psis, perron(level_matrices(golden.floor, psis)), [0], 3, 0)


@pytest.mark.parametrize("samples", [0, -1])
def test_step_samples_refuse_fewer_than_one_sample(golden, samples):
    psis = np.zeros((1, 1))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        invariance_step_check(golden.floor, psis, perron(level_matrices(golden.floor, psis)), [0], samples, 3)


def test_step_check_matches_per_sample_cylinder_measures(built):
    # the per-sample loop over MaharamMeasure.cylinder_measure, on the same draws
    rng = random.Random(21)
    psis, _, pf = stack(built, [tuple(rng.uniform(-1, 1) for _ in range(built.phi.m)) for _ in range(2)])
    floor = built.floor
    invariance, quasi = invariance_step_check(floor, psis, pf, seeds=[99, 100], samples=400, level=5)
    for t, seed in enumerate((99, 100)):
        measure = MaharamMeasure(built.diagram, built.phi, psis[t])
        worst_inv = worst_quasi = 0.0
        for p, a in reference_samples(built.diagram, 5, 400, built.phi.m, seed):
            succ = built.diagram.adic_successor(p)
            move = built.phi.of_label(int(built.diagram.source[p[0]]) + 1)
            lhs = measure.cylinder_measure(succ, vec_add(a, move))
            worst_inv = max(worst_inv, abs(lhs - measure.cylinder_measure(p, a)))
            ratio = measure.cylinder_measure(succ) / measure.cylinder_measure(p)
            expected = math.exp(-sum(x * y for x, y in zip(psis[t], move)))
            worst_quasi = max(worst_quasi, abs(ratio - expected) / expected)
        assert abs(invariance[t] - worst_inv) <= 1e-13
        assert abs(quasi[t] - worst_quasi) <= 1e-13


def test_level_matrices_name_a_psi_out_of_float_range(rank2):
    floor = rank2.floor
    assert np.isfinite(level_matrices(floor, np.array([[0.0, 200.0]]))).all()
    for bad in ((0.0, 300.0), (0.0, -300.0)):
        with pytest.raises(ValueError, match=rf"psi \({bad[0]}, {bad[1]}\) is out of float range"):
            level_matrices(floor, np.array([[0.1, 0.2], bad]))


def test_continuity_profile_modulus_decreases(built):
    grids = dyadic_grids(built.phi.m)
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=3)
    profiles = continuity_profile(built.floor, cylinders, grids)
    moduli = [p.modulus for p in profiles]
    assert moduli[0] > moduli[1] > moduli[2] > 0
    steps = [p.step for p in profiles]
    assert steps == [1.0, 0.5, 0.25]


def test_continuity_profile_identical_points_zero_delta(built):
    grids = [((0.3,) * 1,) * built.phi.m]  # single point per axis
    cylinders = default_cylinder_family(built.diagram, built.phi.m, level=2)
    profiles = continuity_profile(built.floor, cylinders, grids)
    assert profiles[0].modulus == 0.0


def eigen_reference_masses(diagram, phi, level_matrix, cylinders, psi):
    """Masses at one psi from LAPACK's Perron pair of M(lambda) and the
    closed form lambda^(a + S_k f(p)) v_t / r^k, without the batched core."""
    lam = [math.exp(x) for x in psi]
    values, vectors = np.linalg.eig(np.array(evaluate(level_matrix, lam)))
    top = np.argmax(values.real)
    r, v = values[top].real, np.abs(vectors[:, top].real)
    v = v / v.sum()
    fl = FloorCocycle(diagram, phi)
    return [
        math.prod(x ** e for x, e in zip(lam, vec_add(a, fl.path_sum(p))))
        * v[diagram.target[p[-1]]]
        / r ** len(p)
        for p, a in cylinders
    ]


def test_continuity_profile_matches_eigen_reference(built):
    m = built.phi.m
    level_matrix = level_counting_matrix(built.floor)
    cylinders = default_cylinder_family(built.diagram, m, level=4)
    grids = dyadic_grids(m) + [((0.3,),) * m]  # last: one point per axis
    profiles = continuity_profile(built.floor, cylinders, grids)
    for axes, profile in zip(grids, profiles):
        points = list(product(*axes))
        # (psi, cylinder) -> (measure, adjacent delta), row i of the arrays at points[i]
        rows = {
            (point, c_idx): (mass, delta)
            for point, masses, deltas in zip(points, profile.masses.tolist(), profile.deltas.tolist())
            for c_idx, (mass, delta) in enumerate(zip(masses, deltas))
        }
        assert profile.masses.shape == profile.deltas.shape == (len(points), len(cylinders))
        assert len(rows) == profile.masses.size == len(points) * len(cylinders)
        for point in points:
            want = eigen_reference_masses(built.diagram, built.phi, level_matrix, cylinders, point)
            for c_idx, mass in enumerate(want):
                assert rows[(point, c_idx)][0] == pytest.approx(mass, rel=1e-12, abs=0)
        # a delta is the largest change to a neighbour one step up one axis
        for (point, c_idx), (mass, delta) in rows.items():
            ups = [
                point[:i] + (axis[axis.index(x) + 1],) + point[i + 1 :]
                for i, (axis, x) in enumerate(zip(axes, point))
                if axis.index(x) + 1 < len(axis)
            ]
            assert delta == max((abs(rows[(up, c_idx)][0] - mass) for up in ups), default=0.0)
        assert profile.modulus == max(delta for _, delta in rows.values())


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
    (profile,) = continuity_profile(rank2.floor, cylinders, [(axis, axis)])
    assert profile.masses.shape == profile.deltas.shape == (17 * 17, len(cylinders))
    assert calls == Counter(perron=1)


def table_masses(table):
    """Every level-k path of a table as its edge ids, and the (paths, fibers)
    array of its masses, from the rank-one factors."""
    ids = np.concatenate(list(table.floor.diagram.path_blocks(table.level)))
    return ids, np.exp(table.path_logs(ids)[:, None] + table.fiber_logs)


def test_measure_table(golden):
    table = build_measure_table(golden.floor, (0.2,), level=2)
    assert table.level == 2
    # every level-2 path appears with the full fiber box
    n_paths = sum(1 for _ in golden.diagram.enumerate_paths(2))
    fibers = set(table.fibers)
    assert len(fibers) == len(table.fibers)
    ids, masses = table_masses(table)
    assert ids.shape == (n_paths, 2)
    assert masses.shape == (n_paths, len(fibers))
    assert (masses >= 0).all()
    bound = max(abs(a[0]) for a in fibers)
    fl = FloorCocycle(golden.diagram, golden.phi)
    max_sum = max(
        max(abs(x) for x in fl.path_sum(p)) for p in golden.diagram.enumerate_paths(2)
    )
    assert bound == max_sum


def test_path_sum_bound_is_the_largest_path_sum(built):
    fl = built.floor
    for level in (1, 2, 3):
        ids = np.concatenate(list(built.diagram.path_blocks(level)))
        assert path_sum_bound(fl, level) == np.abs(fl.f[ids].sum(axis=1)).max()


def test_measure_table_rank_one_factors_give_the_masses(golden):
    table = build_measure_table(golden.floor, (0.2,), level=3)
    measure = MaharamMeasure(golden.diagram, golden.phi, (0.2,))
    paths = list(golden.diagram.enumerate_paths(3))
    ids, table_mass = table_masses(table)
    assert ids.tolist() == [list(p) for p in paths]
    assert table_mass.shape == (len(paths), len(table.fibers))
    for path, masses in zip(paths[::7], table_mass[::7].tolist()):
        for fiber, mass in zip(table.fibers, masses):
            assert mass == pytest.approx(measure.cylinder_measure(path, fiber), rel=1e-12)


def test_measure_table_slice_matches_its_fiber_box(golden):
    # demo 03 prints the [-1, 1] slice of a table, with fiber logs of its own
    table = build_measure_table(golden.floor, (0.3,), level=1)
    assert table.fibers == ((-2,), (-1,), (0,), (1,), (2,))
    ids, masses = table_masses(table)
    own = np.exp(table.path_logs(ids)[:, None] + np.array([[-1], [0], [1]]) @ np.array([0.3]))
    assert np.array_equal(masses[:, 1:4], own)
