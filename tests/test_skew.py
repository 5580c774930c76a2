import random

import pytest

from ietskew.algebra import identity_matrix, invariant_factors, transpose
from ietskew.skew import SkewCocycle, check_periodic_type, eigencocycles


def test_eigencocycles_identity_matrix():
    basis = eigencocycles(identity_matrix(3))
    assert len(basis) == 3
    assert sorted(basis) == sorted(identity_matrix(3))


def test_eigencocycles_no_unit_eigenvalue():
    # characteristic polynomial x^2 - 3x + 1 has no root 1
    assert eigencocycles(((2, 1), (1, 1))) == []


def test_eigencocycles_on_instances(built):
    a = built.tower.matrix
    basis = eigencocycles(a)
    m = len(basis)
    assert m >= 1
    for vec in basis:
        image = tuple(
            sum(a[i][j] * vec[i] for i in range(len(vec))) for j in range(len(vec))
        )
        assert image == vec
    phi = SkewCocycle(transpose(basis))
    assert invariant_factors(phi.values) == (1,) * m
    assert phi == SkewCocycle(phi.values)  # strict constructor accepts it
    assert built.phi.m == m


def test_check_periodic_type(built):
    a = built.tower.matrix
    assert check_periodic_type(a, built.phi)
    values = [list(v) for v in built.phi.values]
    values[0][0] += 1
    perturbed = SkewCocycle(values)
    assert not check_periodic_type(a, perturbed)


def word_sum(tower, values, j: int) -> tuple[int, ...]:
    """Sum of the value tuples over the letters of return word j: one pass up tower j."""
    return tuple(sum(values[letter - 1][c] for letter in tower.words[j - 1]) for c in range(len(values[0])))


def test_birkhoff_sum_is_transpose_action(built):
    a = built.tower.matrix
    d = built.tower.d
    rng = random.Random(2)
    for _ in range(10):
        values = tuple(
            tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(d)
        )
        for j in range(1, d + 1):
            s = word_sum(built.tower, values, j)
            expected = tuple(
                sum(a[i][j - 1] * values[i][c] for i in range(d)) for c in range(2)
            )
            assert s == expected


def test_birkhoff_sum_periodic_type_returns_phi(built):
    for j in range(1, built.tower.d + 1):
        assert word_sum(built.tower, built.phi.values, j) == built.phi.of_label(j)


def test_single_floor_tower():
    from ietskew.iet import TowerSystem

    tower = TowerSystem(2, ((1, 0), (0, 1)), (b"\x01", b"\x02"), (1, 1))
    phi = SkewCocycle(((3,), (5,)))
    assert word_sum(tower, phi.values, 1) == (3,)


def test_generation_invariant_enforced():
    with pytest.raises(ValueError):
        SkewCocycle(((2,), (4,)))  # lattice 2Z, not Z


def test_zero_cocycle_is_fixed_but_rejected():
    with pytest.raises(ValueError):
        SkewCocycle(((0,), (0,)))


def test_skew_cocycle_is_an_immutable_value():
    phi = SkewCocycle(((1, 0), (0, 1), (1, 1)))
    with pytest.raises(AttributeError):
        phi.values = ((1,), (0,), (0,))
    twin = SkewCocycle([[1, 0], [0, 1], [1, 1]])
    assert phi == twin and hash(phi) == hash(twin)
    assert {phi: "a", twin: "b"} == {phi: "b"}
    assert phi != SkewCocycle(((1, 0), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match="do not generate the full lattice"):
        SkewCocycle(((2, 0), (0, 1), (2, 1)))
