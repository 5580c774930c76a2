import copy
import random
import re

from ietskew import maharam
from ietskew import verification as V
from ietskew.algebra import LaurentMatrix, LaurentPolynomial
from ietskew.cocycles import FloorCocycle


def moved_exponent(mat: LaurentMatrix) -> LaurentMatrix:
    """Copy of mat with one monomial moved up by one in its first exponent.

    The coefficient totals, and so the matrix at t = 1, are unchanged.
    """
    rows = [list(row) for row in mat.entries]
    i, j = next((i, j) for i in range(mat.d) for j in range(mat.d) if rows[i][j].terms)
    terms = dict(rows[i][j].terms)
    a = next(iter(terms))
    moved = (a[0] + 1,) + a[1:]
    terms[a] -= 1
    terms[moved] = terms.get(moved, 0) + 1
    rows[i][j] = LaurentPolynomial(mat.m, terms)
    return LaurentMatrix(rows)


def test_level_counting_fails_at_k1_on_a_moved_exponent(built, monkeypatch):
    exact = V.level_counting_matrix
    monkeypatch.setattr(V, "level_counting_matrix", lambda *a: moved_exponent(exact(*a)))
    result = V.check_level_counting(built, kmax=3)
    assert result.status == "fail"
    assert result.detail == "coefficients disagree with paths at k=1"


def test_level_counting_fails_at_the_damaged_power(built, monkeypatch):
    # M itself is exact; every product M^(k-1) * M comes out with one
    # exponent moved, so the check must pass k=1 and fail at k=2
    exact_mul = LaurentMatrix.__mul__
    monkeypatch.setattr(LaurentMatrix, "__mul__", lambda a, b: moved_exponent(exact_mul(a, b)))
    result = V.check_level_counting(built, kmax=3)
    assert result.status == "fail"
    assert result.detail == "coefficients disagree with paths at k=2"


def test_level_counting_counts_every_path(built):
    result = V.check_level_counting(built, kmax=3)
    assert result.status == "pass"
    n_paths = sum(sum(built.diagram.heights(k)) for k in (1, 2, 3))
    assert result.detail == f"coefficient-exact to k=3 over {n_paths} paths"


def test_maharam_draws_psi_then_seed_from_one_rng(built, monkeypatch):
    seen = {}
    real = V.invariance_step_check

    def spy(floor, psis, pf, seeds, **kwargs):
        seen.update(psis=psis.tolist(), seeds=list(seeds), kwargs=kwargs)
        return real(floor, psis, pf, seeds, **kwargs)

    monkeypatch.setattr(V, "invariance_step_check", spy)
    assert V.check_maharam(built, n_psi=6, n_cylinders=50, seed=31).passed
    rng = random.Random(31)
    psis, seeds = [], []
    for _ in range(6):
        psis.append([rng.uniform(-1.0, 1.0) for _ in range(built.phi.m)])
        seeds.append(rng.randrange(2 ** 30))
    assert seen == {"psis": psis, "seeds": seeds, "kwargs": {"samples": 50, "level": 5}}


def test_maharam_is_one_perron_call_and_no_scalar_masses(built, monkeypatch):
    calls = []
    monkeypatch.setattr(V, "perron", lambda mats: calls.append(mats.shape) or maharam.perron(mats))

    def refuse(*args, **kwargs):
        raise AssertionError("scalar mass or per-psi measure in criterion 8")

    monkeypatch.setattr(maharam.MaharamMeasure, "__init__", refuse)
    monkeypatch.setattr(maharam.MaharamMeasure, "cylinder_measure", refuse)
    monkeypatch.setattr(built.diagram, "adic_successor", refuse)
    result = V.check_maharam(built, n_psi=7, n_cylinders=40, seed=2)
    assert result.passed, result.detail
    assert calls == [(7, built.diagram.d, built.diagram.d)]
    assert re.fullmatch(
        r"7 psi x 40 cylinders, seed 2; step \S+, quasi \S+, recurrence \S+, "
        r"Perron <= \d+ iterations",
        result.detail,
    )


def test_maharam_fails_on_a_shifted_f_value(built, monkeypatch):
    damaged = copy.copy(FloorCocycle.of(built.diagram, built.phi))
    damaged.f = damaged.f.copy()
    damaged.f[1, 0] += 1
    monkeypatch.setattr(FloorCocycle, "of", classmethod(lambda cls, diagram, phi: damaged))
    result = V.check_maharam(built, n_psi=5, n_cylinders=200, seed=4)
    assert result.status == "fail"
    assert result.residual > 1e-10
    assert result.detail.startswith("residual above 1e-10 at psi #0; step ")


def test_maharam_names_the_first_psi_with_a_scaled_perron_component(built, monkeypatch):
    def scaled(mats):
        pf = maharam.perron(mats)
        pf.vector[3, 0] *= 1 + 1e-6
        pf.vector[5, 1] *= 1 + 1e-6
        return pf

    monkeypatch.setattr(V, "perron", scaled)
    result = V.check_maharam(built, n_psi=8, n_cylinders=100, seed=4)
    assert result.status == "fail"
    assert result.residual > 1e-10
    assert result.detail.startswith("residual above 1e-10 at psi #3; ")
