"""Skewing cocycles: integer 1-eigenvectors of A^T and periodic-type checks.

A skewing cocycle assigns an element of Z^m to each labelled interval.  The
pair (loop combinatorics, cocycle) is self-similar under induction exactly
when A^T phi = phi, in which case every identity downstream is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    IntMatrix,
    integer_kernel,
    invariant_factors,
    mat_mul,
    row_hnf,
    solve_in_row_lattice,
    transpose,
)


@dataclass(frozen=True, slots=True)
class SkewCocycle:
    """Fiber displacement per labelled interval; the values must generate Z^m."""

    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        values = tuple(tuple(int(x) for x in row) for row in self.values)
        if not values:
            raise ValueError("empty cocycle")
        m = len(values[0])
        if any(len(v) != m for v in values):
            raise ValueError("inconsistent fiber dimensions")
        if m == 0:
            raise ValueError("fiber dimension must be at least 1")
        if invariant_factors(values) != (1,) * m:
            raise ValueError("cocycle values do not generate the full lattice Z^m")
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    def of_label(self, label: int) -> tuple[int, ...]:
        return self.values[label - 1]


def eigencocycles(a: IntMatrix) -> list[tuple[int, ...]]:
    """Integer basis of ker(A^T - I), re-coordinatised to generate Z^m.

    The basis lists m vectors of length d, m the kernel rank (its length).
    Reading the basis columnwise gives the cocycle values phi_j in Z^m; the
    change of coordinates identifies the lattice they span with Z^m itself,
    so the generation requirement holds by construction.  An empty basis
    means the loop supports no periodic-type skew-product.
    """
    d = len(a)
    at_minus_i = [
        [a[j][i] - (1 if i == j else 0) for j in range(d)] for i in range(d)
    ]
    kernel = integer_kernel(at_minus_i)
    m = len(kernel)
    if m == 0:
        return []
    # value matrix: row j is phi_j, column c is the c-th kernel vector
    value_rows = transpose(kernel)
    basis_of_lattice = row_hnf(value_rows)
    if len(basis_of_lattice) != m:
        raise ArithmeticError("kernel basis lost rank")  # impossible for independent columns
    new_rows = [solve_in_row_lattice(basis_of_lattice, row) for row in value_rows]
    if None in new_rows:
        raise ArithmeticError("target not in the row lattice")
    new_rows = tuple(map(tuple, new_rows))
    if mat_mul(transpose(a), new_rows) != new_rows:
        raise ArithmeticError("rotated basis left the 1-eigenspace")
    if invariant_factors(new_rows) != (1,) * m:
        raise ArithmeticError("rotation failed to reach the full lattice")
    return list(transpose(new_rows))


def check_periodic_type(a: IntMatrix, phi: SkewCocycle) -> bool:
    """True exactly when A^T phi = phi, componentwise over Z."""
    if len(a) != phi.d:
        raise ValueError("matrix size does not match cocycle length")
    return mat_mul(transpose(a), phi.values) == phi.values


def require_periodic_type(a: IntMatrix, phi: SkewCocycle) -> None:
    """Refuse a cocycle that A^T does not fix: nothing periodic-type is defined for it."""
    if not check_periodic_type(a, phi):
        raise ValueError("cocycle is not fixed by the loop (not periodic type)")
