import copy
import inspect
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from ietskew import bratteli, cocycles, maharam
from ietskew import verification as V
from ietskew.algebra import LaurentMatrix, invariant_factors
from ietskew.bratteli import BratteliDiagram
from ietskew.instances import build_instance, load_instance


def test_every_check_takes_only_built_and_seed():
    assert len(V.ALL_CHECKS) == 11
    for check in V.ALL_CHECKS:
        params = inspect.signature(check).parameters
        assert list(params) == ["built", "seed"], check.check_name
        assert params["seed"].default == 0, check.check_name
    assert list(inspect.signature(V.run_verification).parameters) == ["built", "seed"]


def test_criteria_1_2_and_11_compose_each_tower_once(built, monkeypatch):
    # criterion 2 composes only the levels above criterion 1's, and on the
    # phi fault of criterion 11 it fails before composing any
    composed = []
    real = V.compose_loop
    monkeypatch.setattr(V, "compose_loop", lambda loop, k: composed.append(k) or real(loop, k))
    checks = [V.check_tower_oracle, V.check_cocycle_identities, V.check_fault_injection]
    assert [r.status for r in V.run_layers(built, checks)] == ["pass"] * 3
    assert composed == [0, 1, 2, 3, 4]


def moved_exponent(counts: np.ndarray) -> np.ndarray:
    """Copy of a dense (d, d, *box) count array with one count moved up by
    one in its first exponent, the box grown by one slot at the top of that
    axis so the exponent offset stays.

    The coefficient totals, and so the matrix at t = 1, are unchanged.
    """
    out = np.pad(counts, [(0, 0), (0, 0), (0, 1)] + [(0, 0)] * (counts.ndim - 3))
    at = np.argwhere(out)[0]  # the first nonzero coefficient
    out[tuple(at)] -= 1
    at[2] += 1
    out[tuple(at)] += 1
    return out


def damaged(exact, damage):
    """``exact``, the builder or the product of Laurent matrices, with
    ``damage`` applied to the counts and offset of what it returns."""
    def matrix(*args):
        mat = exact(*args)
        return LaurentMatrix(*damage(mat.counts, mat.offset))

    return matrix


def test_level_counting_fails_at_k1_on_a_moved_exponent(built, monkeypatch):
    exact = V.level_counting_matrix
    monkeypatch.setattr(V, "level_counting_matrix", damaged(exact, lambda c, o: (moved_exponent(c), o)))
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert result.status == "fail"
    assert result.detail == "coefficients disagree with paths at k=1"


def moved_cell(counts: np.ndarray) -> np.ndarray:
    """Copy of a dense count array with one edge's count moved to the next
    cell of its row, at the same exponent.

    The coefficient total of the matrix is unchanged; those of the two
    cells, and so the matrix at t = 1, are not.
    """
    out = counts.copy()
    at = np.argwhere(out)[0]
    out[tuple(at)] -= 1
    at[1] = (at[1] + 1) % len(out)
    out[tuple(at)] += 1
    return out


def test_level_counting_fails_at_k1_on_a_monomial_in_another_cell(built, monkeypatch):
    exact = V.level_counting_matrix
    monkeypatch.setattr(V, "level_counting_matrix", damaged(exact, lambda c, o: (moved_cell(c), o)))
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert result.status == "fail"
    assert result.detail == "coefficients disagree with paths at k=1"


@pytest.mark.parametrize("shift", [-1, 1])
def test_level_counting_fails_at_k1_on_a_monomial_outside_the_path_range(built, monkeypatch, shift):
    # one extra monomial below or above every path's f-sum: the dense count
    # array has no cell for it, and it must still count as a mismatch
    def with_outlier(counts, offset):
        below, above = (1, 0) if shift < 0 else (0, 1)
        out = np.pad(counts, [(0, 0), (0, 0)] + [(below, above)] * (counts.ndim - 2))
        out[(0, 0, *[0 if shift < 0 else -1] * (counts.ndim - 2))] += 1  # at min f - 1 or max f + 1
        return out, tuple(x - below for x in offset)

    exact = V.level_counting_matrix
    monkeypatch.setattr(V, "level_counting_matrix", damaged(exact, with_outlier))
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert (result.status, result.detail) == ("fail", "coefficients disagree with paths at k=1")


def test_level_counting_fails_at_the_damaged_power(built, monkeypatch):
    # M itself is exact; every product M^(k-1) * M comes out with one
    # exponent moved, so the check must pass k=1 and fail at k=2
    exact_mul = V.laurent_array_mul
    monkeypatch.setattr(V, "laurent_array_mul", damaged(exact_mul, lambda c, o: (moved_exponent(c), o)))
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert result.status == "fail"
    assert result.detail == "coefficients disagree with paths at k=2"


def with_fault_tower(built):
    """built on the diagram of a tower whose words disagree with its matrix."""
    corrupt = V._tower_with_swapped_letters(built.tower)  # built past TowerSystem's validation
    return replace(built, diagram=BratteliDiagram(corrupt))


def test_bratteli_dictionary_counts_the_letters_of_a_fault_tower(built):
    result = V.check_bratteli_dictionary(with_fault_tower(built))
    assert result.status == "fail"
    assert result.detail == "edge multiset disagrees with incidence matrix"


def test_level_counting_checks_m_at_one_against_the_incidence_matrix(built, monkeypatch):
    # M(t) and the path counts both come from the edges, so only the exact
    # M(1) = A check sees edges that disagree with the matrix
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(with_fault_tower(built))
    assert result.status == "fail"
    assert result.detail == "coefficient totals != incidence power at k=1"


def test_level_counting_fails_at_k1_on_a_path_enumerated_twice(built, monkeypatch):
    # the first level-1 block yields its first path once more
    exact = BratteliDiagram.path_blocks

    def twice(self, level, rank=None):
        blocks = exact(self, level, rank)
        first = next(blocks)
        yield np.concatenate((first, first[:1])) if level == 1 else first
        yield from blocks

    monkeypatch.setattr(BratteliDiagram, "path_blocks", twice)
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert (result.status, result.detail) == ("fail", "coefficients disagree with paths at k=1")


def test_level_counting_counts_every_path(built, monkeypatch):
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert result.status == "pass"
    n_paths = sum(sum(built.diagram.heights(k)) for k in (1, 2, 3))
    assert result.detail == f"coefficient-exact to k=3 over {n_paths} paths"


def test_level_counting_bincounts_at_most_a_path_block_of_keys(built, monkeypatch):
    # blocks of 7 keys split the prefixes and the out-edges of one vertex
    # (out-degrees reach 29); the memory per bincount stays flat
    sizes = []
    exact = np.bincount
    monkeypatch.setattr(np, "bincount", lambda keys, **kw: sizes.append(len(keys)) or exact(keys, **kw))
    monkeypatch.setattr(bratteli, "PATH_BLOCK", 7)
    monkeypatch.setattr(V, "COUNTING_LEVELS", 3)
    result = V.check_level_counting(built)
    assert result.status == "pass"
    assert result.detail == f"coefficient-exact to k=3 over {sum(sizes)} paths"
    assert max(sizes) <= 7 and len(sizes) >= sum(built.diagram.heights(3)) / 7


def test_maharam_draws_psi_then_seed_from_one_rng(built, monkeypatch):
    # each psi is followed by the draw of a seed that nothing reads: the psi stack stays as it was
    seen = []
    real = V.level_matrices
    monkeypatch.setattr(V, "level_matrices", lambda fl, psis: seen.append(psis.tolist()) or real(fl, psis))
    monkeypatch.setattr(V, "MAHARAM_PSIS", 6)
    assert V.check_maharam(built, seed=31).status == "pass"
    rng = random.Random(31)
    psis = []
    for _ in range(6):
        psis.append([rng.uniform(-1.0, 1.0) for _ in range(built.phi.m)])
        rng.randrange(2 ** 30)
    assert seen == [psis]


def test_maharam_fails_when_the_skewed_step_moves_each_fiber_one_step_too_far(built, monkeypatch):
    # a step that adds phi twice breaks criterion 4's telescoped identity,
    # so the layered run stops there and criterion 8 is skipped
    exact = V.skewed_adic_step

    def too_far(fl, ids, fiber):
        succ, moved = exact(fl, ids, fiber)
        return succ, moved + (moved - fiber)

    monkeypatch.setattr(V, "skewed_adic_step", too_far)
    results = {r.name: r for r in V.run_verification(built, seed=0)}
    assert results["tail_cocycle_identity"].status == "fail"
    assert results["tail_cocycle_identity"].detail.startswith("telescoped sum identity broken (n=")
    assert results["maharam_invariance"].status == "skipped"


def test_maharam_is_one_perron_call_and_no_scalar_masses(built, monkeypatch):
    calls = []
    monkeypatch.setattr(V, "perron", lambda mats: calls.append(mats.shape) or maharam.perron(mats))

    def refuse(*args, **kwargs):
        raise AssertionError("scalar mass or per-psi measure in criterion 8")

    monkeypatch.setattr(maharam.MaharamMeasure, "__init__", refuse)
    monkeypatch.setattr(maharam.MaharamMeasure, "cylinder_measure", refuse)
    monkeypatch.setattr(built.diagram, "adic_successor", refuse)
    monkeypatch.setattr(V, "MAHARAM_PSIS", 7)
    result = V.check_maharam(built, seed=2)
    assert result.status == "pass", result.detail
    assert calls == [(7, built.diagram.d, built.diagram.d)]
    assert re.fullmatch(r"7 psi, seed 2; recurrence \S+, Perron <= \d+ iterations", result.detail)


def test_maharam_fails_on_a_shifted_f_value(built):
    # a shifted f-value breaks the tail cocycle = phi identity of criterion 4,
    # so the layered run stops there and criterion 8 is skipped
    damaged = copy.copy(built.floor)
    damaged.f = damaged.f.copy()
    damaged.f[1, 0] += 1
    injured = replace(built)  # its own cached floor, the damaged copy
    injured.__dict__["floor"] = damaged
    results = {r.name: r for r in V.run_verification(injured, seed=4)}
    assert results["tail_cocycle_identity"].status == "fail"
    assert results["tail_cocycle_identity"].detail.startswith("tail cocycle != phi at ")
    assert results["maharam_invariance"].status == "skipped"


def test_maharam_fails_on_a_moved_exponent_in_the_counting_power(built, monkeypatch):
    # the Perron data are exact, so only the counting-route recurrence sees it
    exact = V.level_counting_matrix
    monkeypatch.setattr(V, "level_counting_matrix", damaged(exact, lambda c, o: (moved_exponent(c), o)))
    monkeypatch.setattr(V, "MAHARAM_PSIS", 3)
    result = V.check_maharam(built, seed=1)
    assert result.status == "fail"
    assert result.detail.startswith("residual above 1e-10 at psi #0; recurrence ")


def test_maharam_names_the_first_psi_with_a_scaled_perron_component(built, monkeypatch):
    def scaled(mats):
        pf = maharam.perron(mats)
        pf.vector[3, 0] *= 1 + 1e-6
        pf.vector[5, 1] *= 1 + 1e-6
        return pf

    monkeypatch.setattr(V, "perron", scaled)
    monkeypatch.setattr(V, "MAHARAM_PSIS", 8)
    result = V.check_maharam(built, seed=4)
    assert result.status == "fail"
    assert result.residual > 1e-10
    assert result.detail.startswith("residual above 1e-10 at psi #3; ")


def test_dictionary_detail_counts_the_paths_visited(built):
    result = V.check_bratteli_dictionary(built)
    assert result.status == "pass"
    n_paths = sum(sum(built.diagram.heights(k)) for k in (1, 2, 3))
    assert result.detail == f"exhaustive to level 3 over {n_paths} paths"


@pytest.mark.parametrize(
    "level, damage, detail",
    [
        (0, "raise", "floor bijection broken at level 1"),
        (1, "raise", "floor bijection broken at level 2"),
        (2, "raise", "floor bijection broken at level 3"),
        (0, "swap", "floor inversion broken at level 1"),
    ],
)
def test_dictionary_fails_on_a_wrong_offset(built, level, damage, detail):
    # a fresh diagram, so the damaged table stays out of the shared fixture
    diagram = BratteliDiagram(built.tower)
    off = diagram.offsets(level).copy()
    if damage == "raise":
        off[1] += 1
    else:
        off[1], off[2] = off[2], off[1]
    diagram._offsets[level] = off
    result = V.check_bratteli_dictionary(replace(built, diagram=diagram))
    assert (result.status, result.detail) == ("fail", detail)


@pytest.mark.parametrize(
    "name, path",
    [
        ("golden_triple", "(1,3)(1,2)(2,0)"),
        ("genus2_rank1", "(3,16)(3,14)(2,7)(2,8)"),
        ("genus2_rank2", "(3,25)(2,9)(3,2)(3,14)"),
    ],
)
def test_tail_cocycle_fails_on_the_injected_phi_fault(packaged, name, path):
    # the first drawn path whose tail cocycle misses the changed phi
    built = packaged(name)
    result = V.check_tail_cocycle(replace(built, phi=V._phi_fault(built)), seed=0)
    assert (result.status, result.detail) == ("fail", f"tail cocycle != phi at {path}")


def reference_tail_draws(diagram, seed, n_paths):
    """Criterion 4's draws as a loop over paths: random_path_ids at a random
    length, again at length 4 while maximal; then 60 level-9 paths, each
    non-maximal one with its number of adic steps."""
    rng = random.Random(seed)
    paths = []
    for _ in range(n_paths):
        p = tuple(diagram.random_path_ids(rng.choice([2, 3, 4]), rng))
        while diagram.is_maximal(p):
            p = tuple(diagram.random_path_ids(4, rng))
        paths.append(p)
    starts = []
    for _ in range(60):
        p = tuple(diagram.random_path_ids(9, rng))
        if diagram.is_maximal(p):
            continue
        starts.append((p, rng.randint(1, 20)))
    return paths, starts


@pytest.mark.parametrize("seed, n_paths", [(0, 1000), (5, 1000), (7, 30)])
def test_tail_draws_are_the_per_path_draws(built, seed, n_paths):
    paths, starts = V.tail_draws(built.diagram, random.Random(seed), n_paths)
    ref_paths, ref_starts = reference_tail_draws(built.diagram, seed, n_paths)
    assert paths == [list(p) for p in ref_paths]
    assert starts == [(list(p), n) for p, n in ref_starts]
    assert {len(ids) for ids in paths} == {2, 3, 4} and len(starts) > 50


def randrange_tail_draws(diagram, rng, n_paths):
    """tail_draws with every floor and tower drawn by rng.randrange."""

    def draw(level):
        j, ids = rng.randrange(1, diagram.d + 1), []
        for _ in range(level):
            l = rng.randrange(diagram.q[j - 1])
            ids.append(diagram.first_ids[j - 1] + l)
            j = diagram.words[j - 1][l]
        return ids[::-1]

    paths = []
    for _ in range(n_paths):
        ids = draw(rng.choice([2, 3, 4]))
        while diagram.is_maximal(ids):
            ids = draw(4)
        paths.append(ids)
    starts = []
    for _ in range(60):
        ids = draw(9)
        if not diagram.is_maximal(ids):
            starts.append((ids, rng.randint(1, 20)))
    return paths, starts


def test_tail_draws_leave_the_rng_as_randrange_does(built):
    a, b = random.Random(3), random.Random(3)
    assert V.tail_draws(built.diagram, a, 1000) == randrange_tail_draws(built.diagram, b, 1000)
    assert a.getstate() == b.getstate()


def test_tail_cocycle_fails_on_a_telescoped_sum_off_by_one(golden, monkeypatch):
    # every skewed adic step of a level-9 row moves the fiber one too high
    exact = V.skewed_adic_step

    def one_high_at_level_9(fl, ids, fiber):
        succ, moved = exact(fl, ids, fiber)
        return succ, moved + (ids.shape[1] == 9)

    monkeypatch.setattr(V, "skewed_adic_step", one_high_at_level_9)
    result = V.check_tail_cocycle(golden, seed=0)
    assert (result.status, result.detail) == ("fail", "telescoped sum identity broken (n=6)")


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_tail_cocycle_fails_on_an_f_value_off_by_one_at_depth_4(built, seed, monkeypatch):
    # f one too high on one edge: the telescoped identity between f and phi
    # breaks, while any sum of f-discrepancies still telescopes
    monkeypatch.setattr(V, "TAIL_PATHS", 0)
    _, starts = V.tail_draws(built.diagram, random.Random(seed), 0)
    damaged = replace(built)
    damaged.floor.f[starts[0][0][3]] += 1
    result = V.check_tail_cocycle(damaged, seed=seed)
    assert result.status == "fail"
    assert result.detail.startswith("telescoped sum identity broken")


def tails_only(fl, ids, fiber, depth):
    """shift_image reduced to the tails: the shift-class test sees no fiber."""
    return ids[:, depth:], fiber[:, :0]


def test_tail_orbit_fails_on_a_chain_with_one_shifted_fiber(golden, monkeypatch):
    # golden_triple's first level-2 tower has 21 floors, so every pair of
    # its chain is checked; the chain's fibers sum what the step adds, so
    # one step's fiber one high and the next one low move chain[4] alone
    exact_step = V.skewed_adic_step

    def shifted_step(fl, ids, fiber):
        succ, moved = exact_step(fl, ids, fiber)
        moved[3, 0] += 1
        moved[4, 0] -= 1
        return succ, moved

    monkeypatch.setattr(V, "skewed_adic_step", shifted_step)
    result = V.check_tail_orbit(golden, seed=0)
    assert (result.status, result.detail) == ("fail", "orbit left its shift class in tower 1")
    # with the shift-class test reduced to the tails, the witness still fails
    monkeypatch.setattr(V, "shift_image", tails_only)
    result = V.check_tail_orbit(golden, seed=0)
    assert (result.status, result.detail) == ("fail", "witness failed in tower 1")


def test_tail_orbit_fails_on_one_moved_fiber_in_a_witness_batch(built, monkeypatch):
    # every tower's pairs are one witness call; one pair's second fiber
    # moved by one must fail that tower, the first
    exact = V.tail_orbit_witness

    def moved(fl, first, second, depth):
        ids, fiber = second[0], second[1].copy()
        fiber[len(fiber) // 2, 0] += 1
        return exact(fl, first, (ids, fiber), depth)

    monkeypatch.setattr(V, "tail_orbit_witness", moved)
    result = V.check_tail_orbit(built, seed=0)
    assert (result.status, result.detail) == ("fail", "witness failed in tower 1")


@pytest.mark.parametrize("damage", ["first", "step"])
def test_tail_orbit_fails_when_the_rows_leave_the_floor_order(golden, monkeypatch, damage):
    # the rows must start at the min path and follow the skewed adic step;
    # the shift class alone cannot tell
    exact_paths, exact_step = BratteliDiagram.floors_to_paths, V.skewed_adic_step

    def paths(self, level, towers, heights):
        ids = exact_paths(self, level, towers, heights)
        if damage == "first":  # rows 0 and 1 traded
            ids[[0, 1]] = ids[[1, 0]]
        return ids

    def step(fl, ids, fiber):
        succ, moved = exact_step(fl, ids, fiber)
        if damage == "step":  # row 2 stepped twice
            succ[2] = fl.diagram.adic_successors(succ[2:3])[0]
        return succ, moved

    monkeypatch.setattr(BratteliDiagram, "floors_to_paths", paths)
    monkeypatch.setattr(V, "skewed_adic_step", step)
    monkeypatch.setattr(V, "shift_image", tails_only)
    result = V.check_tail_orbit(golden, seed=0)
    assert (result.status, result.detail) == ("fail", "tower 1 orbit left the floor order")


def test_tail_orbit_fails_on_a_tower_one_floor_short(golden, monkeypatch):
    # a fresh diagram whose level-2 tower 1 is one floor short: its rows
    # follow the step but the last one is not maximal
    diagram = BratteliDiagram(golden.tower)
    heights = diagram.heights(2)
    diagram._heights[2] = (heights[0] - 1, *heights[1:])
    monkeypatch.setattr(V, "shift_image", tails_only)
    result = V.check_tail_orbit(replace(golden, diagram=diagram), seed=0)
    assert (result.status, result.detail) == ("fail", "tower 1 orbit ended early")


def test_certificate_is_inconclusive_at_the_repetition_cap(golden, monkeypatch):
    monkeypatch.setattr(cocycles, "MAX_REPETITION_EXPONENT", 0)
    result = V.check_certificate(golden)
    detail = "repetition cap 2^0 exceeded; last state: rep=1 M=1 q_min=4 covers=False"
    assert (result.status, result.detail) == ("inconclusive", detail)


def test_certificate_fails_on_one_changed_generator(built, monkeypatch):
    # the changed generator keeps the factors (1,)*m and the verdict, so
    # only the recheck's comparison with phi at the prefix letters sees it
    exact = V.amplify_for_common_prefix

    def changed(loop, phi):
        cert = exact(loop, phi)
        g = cert.generators[0]
        generators = ((g[0] + 1, *g[1:]), *cert.generators[1:])
        factors = invariant_factors(generators)
        assert factors == (1,) * phi.m
        return replace(cert, generators=generators, factors=factors, verdict=True)

    monkeypatch.setattr(V, "amplify_for_common_prefix", changed)
    result = V.check_certificate(built)
    assert (result.status, result.detail) == ("fail", "stored certificate failed re-validation")


def test_psi_zero_builds_no_maharam_measure(golden, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("MaharamMeasure built in criterion 9")

    monkeypatch.setattr(maharam.MaharamMeasure, "__init__", refuse)
    result = V.check_psi_zero(golden)
    assert result.status == "pass", result.detail


def test_psi_zero_reads_the_built_perron_lengths(built, monkeypatch):
    # built.lengths already holds the Perron lengths of the tower matrix
    def refuse(*args, **kwargs):
        raise AssertionError("Perron lengths solved again in criterion 9")

    monkeypatch.setattr(V, "pf_lengths", refuse, raising=False)
    result = V.check_psi_zero(built)
    assert result.status == "pass", result.detail


@pytest.mark.parametrize(
    "loop, phi, fault",
    [
        # phi_1 + 1 gives (2, -2, 0), and phi_1 - 1 gives (0, -2, 0): both generate 2Z
        ("tttbtbbbbtt", ((1,), (-2,), (0,)), ((1,), (-1,), (0,))),
        ("btbbttbtt", ((1,), (-2,), (8,)), ((1,), (-1,), (8,))),
    ],
)
def test_fault_injection_skips_changes_that_leave_a_sublattice(tmp_path, loop, phi, fault):
    path = tmp_path / f"{loop}.json"
    path.write_text(json.dumps({"d": 3, "top": [1, 2, 3], "bottom": [3, 2, 1], "loop": list(loop)}))
    built = build_instance(load_instance(str(path)))
    assert built.phi.values == phi
    result = V.check_fault_injection(built)
    assert result.status == "pass", result.detail
    assert V._phi_fault(built).values == fault
