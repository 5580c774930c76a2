"""Exact integer lattice arithmetic and sparse multivariate Laurent polynomials.

Everything in this module is exact: matrices and vectors are plain Python
ints (arbitrary precision, since tower counts grow geometrically), Laurent
polynomials store integer coefficients keyed by integer exponent vectors.
Group elements of Z^m are represented throughout the package as plain
tuples of ints; ``vec_add`` adds two of them.

All values are immutable after construction and all operations are pure,
so concurrent reads are safe.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence


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
# Sparse multivariate Laurent polynomials over Z

class LaurentPolynomial:
    """Integer Laurent polynomial in m variables, stored sparsely.

    ``terms`` maps exponent tuples (length m, entries may be negative) to
    nonzero integer coefficients.  Zero coefficients are never stored.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[tuple[int, ...], int] | None = None):
        self.m = m
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != m:
                raise ValueError(f"exponent {expo} has dimension != {m}")
            clean[expo] = clean.get(expo, 0) + int(coeff)
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "LaurentPolynomial":
        return cls(m, {})

    @classmethod
    def one(cls, m: int) -> "LaurentPolynomial":
        return cls(m, {zero_vector(m): 1})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: int = 1) -> "LaurentPolynomial":
        expo = tuple(int(e) for e in exponent)
        return cls(len(expo), {expo: coeff})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "LaurentPolynomial") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPolynomial(self.m, terms)

    def __mul__(self, other):
        self._check(other)
        return LaurentPolynomial(self.m, self._times(other, {}))

    def _times(self, other, into: dict) -> dict:
        """The terms of self * other added into ``into``."""
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                into[e] = into.get(e, 0) + c1 * c2
        return into

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.m == other.m
            and self.terms == other.terms
        )

    # -- queries -----------------------------------------------------------

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self.terms.get(tuple(exponent), 0)

    def evaluate(self, lam: Sequence[float]) -> float:
        """Evaluate at a strictly positive point of R^m."""
        if len(lam) != self.m:
            raise ValueError("evaluation point has wrong dimension")
        if any(x <= 0 for x in lam):
            raise ValueError("evaluation point must be strictly positive")
        total = 0.0
        for expo, coeff in self.terms.items():
            value = float(coeff)
            for base, e in zip(lam, expo):
                value *= base ** e
            total += value
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms):
            coeff = self.terms[expo]
            mono = "*".join(
                f"t{i + 1}^{e}" for i, e in enumerate(expo) if e != 0
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class LaurentMatrix:
    """Square matrix of LaurentPolynomial entries sharing one exponent dimension."""

    __slots__ = ("d", "m", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPolynomial]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.d = len(self.entries)
        if any(len(row) != self.d for row in self.entries):
            raise ValueError("LaurentMatrix must be square")
        dims = {p.m for row in self.entries for p in row}
        if len(dims) > 1:
            raise ValueError("mixed exponent dimensions")
        self.m = dims.pop() if dims else 0

    @classmethod
    def identity(cls, d: int, m: int) -> "LaurentMatrix":
        one, zero = LaurentPolynomial.one(m), LaurentPolynomial.zero(m)
        return cls([[one if i == j else zero for j in range(d)] for i in range(d)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.d != other.d or self.m != other.m:
            raise ValueError("LaurentMatrix shape/dimension mismatch")
        rows = []
        for i in range(self.d):
            row = []
            for j in range(self.d):
                acc: dict[tuple[int, ...], int] = {}
                for r in range(self.d):
                    self.entries[i][r]._times(other.entries[r][j], acc)
                row.append(LaurentPolynomial(self.m, acc))
            rows.append(row)
        return LaurentMatrix(rows)

    def __eq__(self, other):
        return isinstance(other, LaurentMatrix) and self.entries == other.entries

    def evaluate(self, lam: Sequence[float]):
        """Entrywise evaluation at a positive point; returns a nested list."""
        return [[p.evaluate(lam) for p in row] for row in self.entries]

    def __repr__(self):
        return "\n".join(
            "[" + ", ".join(repr(p) for p in row) + "]" for row in self.entries
        )


def laurent_matrix_pow(mat: LaurentMatrix, k: int) -> LaurentMatrix:
    if k < 0:
        raise ValueError("negative matrix power")
    return _power(mat, k, LaurentMatrix.identity(mat.d, mat.m), LaurentMatrix.__mul__)
