"""References for the exact Laurent layer: a brute-force product with
Python-int coefficients, and the float evaluation that the tests compare
the array form M(lambda) of the Maharam core with."""

from collections import Counter

import numpy as np


def grid(mat):
    """The terms of every entry of a LaurentMatrix."""
    return [[cell.terms for cell in row] for row in mat.entries]


def brute_product(a, b):
    """The terms of every entry of a * b, by a convolution over every pair
    of nonzero coefficients, each found by a walk over its count array."""
    def coefficients(x):
        return [
            (idx[0], idx[1], np.add(x.offset, idx[2:]), int(x.counts[idx]))
            for idx in np.ndindex(x.counts.shape)
            if x.counts[idx]
        ]

    d = len(a.counts)
    out = [[Counter() for _ in range(d)] for _ in range(d)]
    right = coefficients(b)
    for i, r, e, c in coefficients(a):
        for s, j, u, c2 in right:
            if r == s:
                out[i][j][tuple((e + u).tolist())] += c * c2
    return [[{e: c for e, c in cell.items() if c} for cell in row] for row in out]


def evaluate(mat, lam) -> list[list[float]]:
    """A LaurentMatrix entry by entry at a strictly positive point of R^m."""
    if len(lam) != len(mat.offset):
        raise ValueError("evaluation point has wrong dimension")
    if any(x <= 0 for x in lam):
        raise ValueError("evaluation point must be strictly positive")
    d = len(mat.counts)
    out = np.zeros((d, d))
    for i, j, *n in np.ndindex(mat.counts.shape):
        value = float(mat.counts[(i, j, *n)])
        for base, e in zip(lam, np.add(mat.offset, n).tolist()):
            value *= base ** e
        out[i, j] += value
    return out.tolist()
