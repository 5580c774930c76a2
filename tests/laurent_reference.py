"""Float evaluation of the exact Laurent layer: the reference the tests
compare the array form M(lambda) of the Maharam core with."""


def evaluate(p, lam) -> float:
    """A LaurentPolynomial at a strictly positive point of R^m."""
    if len(lam) != p.m:
        raise ValueError("evaluation point has wrong dimension")
    if any(x <= 0 for x in lam):
        raise ValueError("evaluation point must be strictly positive")
    total = 0.0
    for expo, coeff in p.terms.items():
        value = float(coeff)
        for base, e in zip(lam, expo):
            value *= base ** e
        total += value
    return total


def evaluate_matrix(mat, lam) -> list[list[float]]:
    """A LaurentMatrix entry by entry at a strictly positive point."""
    return [[evaluate(p, lam) for p in row] for row in mat.entries]
