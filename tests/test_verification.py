from ietskew import verification as V
from ietskew.algebra import LaurentMatrix, LaurentPolynomial


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
