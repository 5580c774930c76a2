import random
from collections import Counter
from itertools import product

import pytest

from ietskew.algebra import (
    LaurentMatrix,
    LaurentPolynomial,
    as_matrix,
    identity_matrix,
    integer_kernel,
    invariant_factors,
    laurent_matrix_pow,
    mat_mul,
    mat_pow,
    mat_vec,
    row_hnf,
    solve_in_row_lattice,
)
from laurent_reference import evaluate


def random_poly(rng, m, nterms=4, span=3, cmax=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in range(m))
        terms[e] = rng.randint(-cmax, cmax)
    return LaurentPolynomial(m, terms)


def times(p, q):
    """p * q, as the entry of the product of the 1x1 matrices [p] and [q]."""
    return (LaurentMatrix([[p]]) * LaurentMatrix([[q]]))[0, 0]


def plus(p, q):
    terms = Counter(p.terms)
    terms.update(q.terms)
    return LaurentPolynomial(p.m, terms)


def grid(mat):
    """The terms of every entry of a LaurentMatrix."""
    return [[p.terms for p in row] for row in mat.entries]


# -- Laurent polynomial ring, through 1x1 matrix products --------------------

def test_inverse_monomials_cancel():
    t1, t1inv = LaurentPolynomial(1, {(1,): 1}), LaurentPolynomial(1, {(-1,): 1})
    assert times(t1, t1inv).terms == {(0,): 1}


def test_zero_annihilates():
    p = LaurentPolynomial(1, {(2,): 3, (-1,): -7})
    assert times(p, LaurentPolynomial(1)).terms == {}


def test_schoolbook_square():
    # (1 + t1)^2 expanded by hand: 1 + 2 t1 + t1^2
    p = LaurentPolynomial(1, {(0,): 1, (1,): 1})
    assert times(p, p).terms == {(0,): 1, (1,): 2, (2,): 1}


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        times(LaurentPolynomial(1, {(0,): 1}), LaurentPolynomial(2, {(0, 0): 1}))


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.choice([1, 2, 3])
        p, q, r = (random_poly(rng, m) for _ in range(3))
        assert times(times(p, q), r).terms == times(p, times(q, r)).terms
        assert times(p, plus(q, r)).terms == plus(times(p, q), times(p, r)).terms
        assert times(p, q).terms == times(q, p).terms


def test_eval_simple_points():
    assert evaluate(LaurentPolynomial(1, {(1,): 1, (-1,): 1}), (1.0,)) == pytest.approx(2.0)
    assert evaluate(LaurentPolynomial(1, {(0,): 1}), (0.37,)) == 1.0
    assert evaluate(LaurentPolynomial(2, {(1, -1): 2}), (2.0, 4.0)) == pytest.approx(1.0)


def test_eval_rejects_nonpositive_point():
    p = LaurentPolynomial(1, {(-2,): 1})
    with pytest.raises(ValueError):
        evaluate(p, (0.0,))
    with pytest.raises(ValueError):
        evaluate(p, (-1.0,))


def test_eval_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.choice([1, 2])
        p = random_poly(rng, m)
        q = random_poly(rng, m)
        lam = tuple(rng.uniform(0.4, 2.5) for _ in range(m))
        lhs = evaluate(times(p, q), lam)
        rhs = evaluate(p, lam) * evaluate(q, lam)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# -- Laurent matrices ---------------------------------------------------------

def test_matrix_pow_degenerate_cases():
    t, one = LaurentPolynomial(1, {(1,): 1}), LaurentPolynomial(1, {(0,): 1})
    m = LaurentMatrix([[one, t], [t, plus(one, t)]])
    assert grid(laurent_matrix_pow(m, 1)) == grid(m)
    ident = LaurentMatrix.identity(2, 1)
    assert grid(ident) == [[{(0,): 1}, {}], [{}, {(0,): 1}]]
    assert grid(laurent_matrix_pow(ident, 5)) == grid(ident)
    assert grid(laurent_matrix_pow(m, 0)) == grid(ident)


def test_matrix_square_matches_bilinear_expansion():
    rng = random.Random(5)
    polys = [[random_poly(rng, 2, nterms=3, span=2) for _ in range(3)] for _ in range(3)]
    m = LaurentMatrix(polys)
    sq = laurent_matrix_pow(m, 2)
    for i in range(3):
        for j in range(3):
            acc = LaurentPolynomial(2)
            for r in range(3):
                acc = plus(acc, times(polys[i][r], polys[r][j]))
            assert sq[i, j].terms == acc.terms


def test_powers_equal_repeated_products():
    rng = random.Random(6)
    a = as_matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    mat = LaurentMatrix([[random_poly(rng, 2, nterms=2, span=1) for _ in range(2)] for _ in range(2)])
    a_k, mat_k = identity_matrix(3), LaurentMatrix.identity(2, 2)
    for k in range(10):
        assert mat_pow(a, k) == a_k
        assert grid(laurent_matrix_pow(mat, k)) == grid(mat_k)
        a_k, mat_k = mat_mul(a_k, a), mat_k * mat


# -- kernels and invariant factors -------------------------------------------

def brute_force_kernel_members(b, box=3):
    """All kernel vectors with coordinates in [-box, box], by enumeration."""
    d = len(b[0])
    found = []
    for v in product(range(-box, box + 1), repeat=d):
        if any(v) and all(sum(x * y for x, y in zip(row, v)) == 0 for row in b):
            found.append(v)
    return found


def test_kernel_zero_matrix():
    b = as_matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    basis = integer_kernel(b)
    assert len(basis) == 3
    assert sorted(basis) == sorted(identity_matrix(3))


def test_kernel_identity_trivial():
    assert integer_kernel(identity_matrix(4)) == []


def test_kernel_small_example_vs_brute_force():
    b = as_matrix([[1, -1]])
    basis = integer_kernel(b)
    assert len(basis) == 1
    assert basis[0] in ((1, 1), (-1, -1))
    members = brute_force_kernel_members(b)
    for v in members:
        assert solve_in_row_lattice(row_hnf(basis), v) is not None


def test_kernel_random_vs_brute_force():
    rng = random.Random(3)
    for _ in range(30):
        r, d = rng.choice([(1, 3), (2, 3), (2, 4), (3, 4)])
        b = as_matrix(
            [[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)]
        )
        basis = integer_kernel(b)
        for v in basis:
            assert all(x == 0 for x in mat_vec(b, v))
        for v in brute_force_kernel_members(b, box=2):
            assert solve_in_row_lattice(row_hnf(basis), v) is not None, (b, basis, v)


def test_invariant_factors_examples():
    assert invariant_factors(identity_matrix(3)) == (1, 1, 1)
    two_i = as_matrix([[2, 0], [0, 2]])
    assert invariant_factors(two_i) == (2, 2)
    # oracle for [[2,1],[0,3]]: d1 = gcd of entries = 1, d1*d2 = |det| = 6
    assert invariant_factors(as_matrix([[2, 1], [0, 3]])) == (1, 6)
    assert invariant_factors(as_matrix([[0, 0], [0, 0]])) == ()
    # a zero row among nonzero rows changes nothing
    assert invariant_factors([[2, 0], [0, 0], [0, 4]]) == (2, 4)
    assert invariant_factors([[0, 0, 0], [3, 6, 9], [0, 0, 0]]) == (3,)
    # rank-deficient tall matrices: rank 1 of 5 rows in Z^2, rank 2 of 6 rows in Z^3
    assert invariant_factors([[2, -4], [4, -8], [0, 0], [-6, 12], [2, -4]]) == (2,)
    assert invariant_factors([[1, 2, 3], [2, 4, 6], [0, 2, 4], [0, 4, 8], [1, 4, 7], [0, 0, 0]]) == (1, 2)
    # a certificate-shaped list: many rows in Z^1 whose gcd is 1 only jointly
    assert invariant_factors([[6]] * 40 + [[10], [15]]) == (1,)
    assert invariant_factors([[6]] * 40 + [[10], [0]]) == (2,)


def random_unimodular(rng, n, steps=6):
    u = [list(row) for row in identity_matrix(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return as_matrix(u)


def test_invariant_factors_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3])
        b = as_matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        assert invariant_factors(mat_mul(mat_mul(u, b), v)) == invariant_factors(b)


def test_row_hnf_reproduces_row_lattice():
    rng = random.Random(19)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        h = row_hnf(rows)
        for row in rows:
            assert solve_in_row_lattice(h, row) is not None
        for row in h:
            assert solve_in_row_lattice(row_hnf(rows), row) is not None
