import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from ietskew.algebra import (
    LaurentMatrix,
    as_matrix,
    identity_matrix,
    integer_kernel,
    invariant_factors,
    laurent_array_mul,
    laurent_matrix_pow,
    mat_mul,
    mat_pow,
    mat_vec,
    row_hnf,
    solve_in_row_lattice,
)
from laurent_reference import brute_product, evaluate, grid


def laurent(m, cells):
    """The LaurentMatrix of a square grid of {exponent: coefficient} dicts,
    in the smallest box that holds every exponent given."""
    exponents = [e for row in cells for cell in row for e in cell] or [(0,) * m]
    lo, hi = np.min(exponents, axis=0), np.max(exponents, axis=0)
    counts = np.zeros((len(cells), len(cells), *(hi - lo + 1)), dtype=np.int64)
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for e, c in cell.items():
                counts[(i, j, *np.subtract(e, lo))] += c
    return LaurentMatrix(counts, tuple(lo.tolist()))


def poly(m, coefficients=None):
    """A Laurent polynomial, as the one cell of a 1x1 LaurentMatrix."""
    return laurent(m, [[coefficients or {}]])


def random_poly(rng, m, nterms=4, span=3, cmax=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in range(m))
        terms[e] = rng.randint(-cmax, cmax)
    return poly(m, terms)


def terms(p):
    """The terms of a 1x1 LaurentMatrix's one cell."""
    return grid(p)[0][0]


def plus(p, q):
    total = Counter(terms(p))
    total.update(terms(q))
    return poly(len(p.offset), total)


# -- Laurent polynomial ring, through 1x1 matrix products --------------------

def test_inverse_monomials_cancel():
    t1, t1inv = poly(1, {(1,): 1}), poly(1, {(-1,): 1})
    assert terms(laurent_array_mul(t1, t1inv)) == {(0,): 1}


def test_zero_annihilates():
    p = poly(1, {(2,): 3, (-1,): -7})
    assert terms(laurent_array_mul(p, poly(1))) == {}


def test_schoolbook_square():
    # (1 + t1)^2 expanded by hand: 1 + 2 t1 + t1^2
    p = poly(1, {(0,): 1, (1,): 1})
    assert terms(laurent_array_mul(p, p)) == {(0,): 1, (1,): 2, (2,): 1}


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        laurent_array_mul(poly(1, {(0,): 1}), poly(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        laurent_array_mul(poly(1, {(0,): 1}), laurent(1, [[{}, {}], [{}, {}]]))


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.choice([1, 2, 3])
        p, q, r = (random_poly(rng, m) for _ in range(3))
        pq, qr = laurent_array_mul(p, q), laurent_array_mul(q, r)
        assert terms(laurent_array_mul(pq, r)) == terms(laurent_array_mul(p, qr))
        assert terms(laurent_array_mul(p, plus(q, r))) == terms(plus(pq, laurent_array_mul(p, r)))
        assert terms(pq) == terms(laurent_array_mul(q, p))
        assert grid(pq) == brute_product(p, q)


def test_eval_simple_points():
    assert evaluate(poly(1, {(1,): 1, (-1,): 1}), (1.0,))[0][0] == pytest.approx(2.0)
    assert evaluate(poly(1, {(0,): 1}), (0.37,))[0][0] == 1.0
    assert evaluate(poly(2, {(1, -1): 2}), (2.0, 4.0))[0][0] == pytest.approx(1.0)


def test_eval_rejects_nonpositive_point():
    p = poly(1, {(-2,): 1})
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
        lhs = evaluate(laurent_array_mul(p, q), lam)[0][0]
        rhs = evaluate(p, lam)[0][0] * evaluate(q, lam)[0][0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# -- Laurent matrices ---------------------------------------------------------

def test_matrix_pow_degenerate_cases():
    t, one = {(1,): 1}, {(0,): 1}
    m = laurent(1, [[one, t], [t, {(0,): 1, (1,): 1}]])
    assert grid(laurent_matrix_pow(m, 1)) == grid(m)
    ident = laurent_matrix_pow(m, 0)
    assert grid(ident) == [[{(0,): 1}, {}], [{}, {(0,): 1}]]
    assert ident.counts.shape == (2, 2, 1) and ident.offset == (0,)
    assert grid(laurent_matrix_pow(ident, 5)) == grid(ident)


def test_matrix_square_matches_bilinear_expansion():
    rng = random.Random(5)
    cells = [[terms(random_poly(rng, 2, nterms=3, span=2)) for _ in range(3)] for _ in range(3)]
    m = laurent(2, cells)
    sq = laurent_matrix_pow(m, 2)
    assert grid(sq) == brute_product(m, m)
    for i in range(3):
        for j in range(3):
            acc = poly(2)
            for r in range(3):
                acc = plus(acc, laurent_array_mul(poly(2, cells[i][r]), poly(2, cells[r][j])))
            assert grid(sq)[i][j] == terms(acc)


def test_powers_equal_repeated_products():
    rng = random.Random(6)
    a = as_matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    mat = laurent(2, [[terms(random_poly(rng, 2, nterms=2, span=1)) for _ in range(2)] for _ in range(2)])
    a_k, mat_k = identity_matrix(3), laurent_matrix_pow(mat, 0)
    at_one = as_matrix(mat.counts.reshape(2, 2, -1).sum(axis=2))  # M(1, 1)
    for k in range(10):
        assert mat_pow(a, k) == a_k
        assert grid(laurent_matrix_pow(mat, k)) == grid(mat_k)
        assert grid(laurent_array_mul(mat_k, mat)) == brute_product(mat_k, mat)
        assert as_matrix(mat_k.counts.reshape(2, 2, -1).sum(axis=2)) == mat_pow(at_one, k)  # M(1)^k = M^k(1)
        a_k, mat_k = mat_mul(a_k, a), laurent_array_mul(mat_k, mat)


def test_a_product_past_int64_is_refused():
    # the factors' totals of |coefficient| bound every coefficient of the
    # product: a product of totals of 2**63 is refused, one just below is exact
    wide, signed = poly(1, {(0,): 2 ** 31, (1,): 2 ** 31}), poly(1, {(0,): 2 ** 31, (1,): -(2 ** 31)})
    for p in (wide, signed):
        with pytest.raises(OverflowError):
            laurent_array_mul(p, poly(1, {(0,): 2 ** 31}))
    c = 2 ** 31 * (2 ** 31 - 1)
    assert terms(laurent_array_mul(wide, poly(1, {(0,): 2 ** 31 - 1}))) == {(0,): c, (1,): c}


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
    # diagonals the HNFs leave alone that are no divisibility chain
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[6, 0], [0, 4]]) == (2, 12)
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
