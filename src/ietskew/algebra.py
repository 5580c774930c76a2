"""Exact integer lattice arithmetic and the product of Laurent-polynomial matrices.

Everything in this module is exact.  Matrices and vectors are plain Python
ints (arbitrary precision, since tower counts grow geometrically).  A
matrix of Laurent polynomials, such as the level-counting matrix M(t), is
a ``LaurentMatrix``: a dense int64 coefficient array and an exponent
offset.  Its one operation is the product behind ``laurent_matrix_pow``,
which refuses with OverflowError rather than wrap (see
``laurent_array_mul``).  Criteria 7 and 8 read M(t)^k in this form.
A group element of Z^m is a plain tuple of ints in the exact layers
(cocycle values, ``FloorCocycle.path_sum``, the certificate), where
``vec_add`` adds two of them; the array layers of ``cocycles`` and
``maharam`` hold many at once as a (rows, m) int array (f-values, fibers,
cylinder exponents).

All values are immutable after construction and all operations are pure,
so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import add
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Z^m vectors (group elements)

def zero_vector(m: int) -> tuple[int, ...]:
    return (0,) * m


def vec_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Integer matrices (tuples of tuples)

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def identity_matrix(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if len(a) != len(a[0]):
        raise ValueError("mat_pow needs a square matrix")
    if k < 0:
        raise ValueError("negative power")
    return _power(a, k, identity_matrix(len(a)), mat_mul)


def _power(x, k: int, one, mul):
    """x**k by square-and-multiply: about 2 log2(k) products."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def column_sums(a: IntMatrix) -> tuple[int, ...]:
    return tuple(sum(col) for col in transpose(a))


def is_positive(a: IntMatrix) -> bool:
    return all(x > 0 for row in a for x in row)


# ---------------------------------------------------------------------------
# Hermite / Smith normal forms, kernels, lattice membership

def row_hnf(mat: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows in echelon order: pivots positive, strictly
    increasing pivot columns, entries above each pivot reduced into
    [0, pivot).
    """
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(rows[i][c]))
            for i in nz:
                if i == piv:
                    continue
                q = rows[i][c] // rows[piv][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[piv])]
        nz = [i for i in range(r, nrows) if rows[i][c] != 0]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


def integer_kernel(b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the lattice {v in Z^d : B v = 0}.

    Works by row-reducing [B^T | I]: rows whose B^T-part vanishes carry a
    basis of the kernel lattice in their identity part.  Returns [] when
    the kernel is trivial.
    """
    b = as_matrix(b)
    if not b:
        return []
    nrows, d = len(b), len(b[0])
    aug = [
        [b[i][j] for i in range(nrows)] + [1 if t == j else 0 for t in range(d)]
        for j in range(d)
    ]
    return [
        row[nrows:] for row in row_hnf(aug) if not any(row[:nrows])
    ]


def invariant_factors(b: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    The rows (equivalently columns) of B generate a full-rank sublattice of
    Z^m exactly when this returns m factors; the sublattice is all of Z^m
    exactly when they are all 1.
    """
    rows = row_hnf(b)
    # The loop ends.  With H = rows, HNF(H^T) starts with the gcd of H's
    # first row: a proper divisor of its pivot p until p divides the row,
    # then (p, 0, ...), H's pivot column, as the HNF is unique.  That row
    # stays so, the rows below follow, and a positive pivot cannot shrink forever.
    while any(sum(1 for x in row if x) > 1 for row in rows):
        rows = row_hnf(transpose(rows))
    diagonal = [max(row) for row in rows]
    for i in range(len(diagonal)):  # (gcd, lcm) on each pair sorts every prime's exponents
        for j in range(i + 1, len(diagonal)):
            diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    return tuple(diagonal)


def solve_in_row_lattice(h: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Integer coefficients c with sum_i c_i h_i = target, where ``h`` is a
    row HNF (as ``row_hnf`` returns it); None when target is not in its
    row lattice."""
    coeffs = []
    t = list(target)
    for row in h:  # a remainder at a pivot column is never cleared again
        c = next(j for j, x in enumerate(row) if x)
        coeffs.append(t[c] // row[c])
        t = [x - coeffs[-1] * y for x, y in zip(t, row)]
    return None if any(t) else coeffs


# ---------------------------------------------------------------------------
# Matrices of Laurent polynomials over Z, held dense

@dataclass(frozen=True)
class LaurentMatrix:
    """Square matrix of integer Laurent polynomials in m variables, held as a
    dense (d, d, *box) int64 array: counts[i, j, *n] is the coefficient of
    t^(offset + n) in cell (i, j)."""

    counts: np.ndarray
    offset: tuple[int, ...]

    @property
    def entries(self) -> tuple[tuple[SimpleNamespace, ...], ...]:
        """Rows of cells, each with ``terms``: exponent tuple -> nonzero
        coefficient, in C order.  A fresh copy on each read; the benchmark's
        term counter reads it."""
        d = len(self.counts)
        cells = [[{} for _ in range(d)] for _ in range(d)]
        for i, j, *n in np.argwhere(self.counts).tolist():
            cells[i][j][tuple(map(add, self.offset, n))] = int(self.counts[(i, j, *n)])
        return tuple(tuple(SimpleNamespace(terms=terms) for terms in row) for row in cells)


def laurent_array_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """The matrix product of two Laurent matrices: the count arrays'
    product convolved along the exponent axes, one ``einsum`` per nonzero
    exponent slot of ``b``, at the sum of the two offsets.

    The counts are int64.  Every coefficient of the product, and every
    partial sum of one, is at most the product of the two factors' totals of
    |coefficient|, so the product refuses with OverflowError when that
    product, taken as Python ints, reaches 2**63: it never wraps."""
    if a.counts.shape[:2] != b.counts.shape[:2] or len(a.offset) != len(b.offset):
        raise ValueError("LaurentMatrix shape/dimension mismatch")
    if int(np.abs(a.counts).sum()) * int(np.abs(b.counts).sum()) >= 2 ** 63:
        raise OverflowError("Laurent matrix product may pass int64")
    box = tuple(x + y - 1 for x, y in zip(a.counts.shape[2:], b.counts.shape[2:]))
    out = np.zeros((*a.counts.shape[:2], *box), dtype=np.int64)
    for slot in zip(*np.nonzero(b.counts.any(axis=(0, 1)))):
        window = tuple(slice(s, s + n) for s, n in zip(slot, a.counts.shape[2:]))
        out[(..., *window)] += np.einsum("ir...,rj->ij...", a.counts, b.counts[(..., *slot)])
    return LaurentMatrix(out, tuple(map(add, a.offset, b.offset)))


def laurent_matrix_pow(mat: LaurentMatrix, k: int) -> LaurentMatrix:
    if k < 0:
        raise ValueError("negative matrix power")
    d, m = len(mat.counts), len(mat.offset)
    one = LaurentMatrix(np.eye(d, dtype=np.int64).reshape(d, d, *[1] * m), zero_vector(m))
    return _power(mat, k, one, laurent_array_mul)
