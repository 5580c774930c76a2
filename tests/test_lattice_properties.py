"""Property tests of the integer normal forms against sympy.

sympy's ``hermite_normal_form`` is column-style: H = A U, with the pivot of
each column its last nonzero entry and the entries to its right reduced.
Reversing the coordinates and the row order turns the column form of the
transpose into the row form that ``row_hnf`` returns, so the two can be
compared entry for entry.  The last test checks that a false property
fails with its falsifying example under the suite's warning filter.
"""

import shutil
import subprocess
import sys
from math import prod
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from ietskew.algebra import integer_kernel, invariant_factors, mat_vec, row_hnf, solve_in_row_lattice


def matrices(max_rows=4, max_cols=4, bound=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def tall_thin_matrices():
    # the shape of the certificate's generator lists: many rows in Z^1..Z^3;
    # scaling each column puts factors other than 1 into the draws
    return matrices(max_rows=80, max_cols=3).flatmap(
        lambda rows: st.lists(st.integers(1, 6), min_size=len(rows[0]), max_size=len(rows[0])).map(
            lambda scale: [[x * s for x, s in zip(row, scale)] for row in rows]
        )
    )


def sympy_row_hnf(rows):
    h = hermite_normal_form(Matrix([row[::-1] for row in rows]).T).T
    return [tuple(int(x) for x in h.row(i))[::-1] for i in range(h.rows)][::-1]


def sympy_factors(rows):
    s = smith_normal_form(Matrix(rows), domain=ZZ)
    return tuple(abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i])


@given(matrices())
def test_row_hnf_is_sympys_hermite_form(rows):
    assert row_hnf(rows) == sympy_row_hnf(rows)


@given(st.one_of(matrices(), tall_thin_matrices()))
def test_invariant_factors_are_sympys_smith_diagonal(rows):
    assert invariant_factors(rows) == sympy_factors(rows)


@given(matrices(max_rows=3, max_cols=5))
def test_integer_kernel_is_the_whole_kernel_lattice(rows):
    # inside the kernel, of rank cols - rank, and primitive (Smith factors
    # all 1): only the kernel lattice itself is all three
    basis = integer_kernel(rows)
    cols = len(rows[0])
    assert all(not any(mat_vec(rows, v)) for v in basis)
    assert len(basis) == cols - Matrix(rows).rank()
    if basis:
        assert sympy_factors(basis) == (1,) * len(basis)


@given(matrices(max_rows=3, max_cols=3, bound=4), st.data())
def test_in_row_lattice_agrees_with_the_smith_invariants(rows, data):
    # a target lies in the row lattice exactly when appending it changes
    # neither the rank nor the product of the invariant factors
    cols = len(rows[0])
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        target = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(cols)]
    else:
        target = data.draw(st.lists(st.integers(-8, 8), min_size=cols, max_size=cols))
    before, after = sympy_factors(rows), sympy_factors(rows + [target])
    inside = len(before) == len(after) and prod(before) == prod(after)
    # membership, and the coefficients over the HNF rows rebuild the target
    h = row_hnf(rows)
    coeffs = solve_in_row_lattice(h, target)
    assert (coeffs is not None) == inside
    if inside:
        assert [sum(c * row[j] for c, row in zip(coeffs, h)) for j in range(cols)] == list(target)


FALSE_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # pyproject.toml turns warnings into errors; hypothesis's report of a failed
    # example must still end in exit 1 with the example, not an INTERNALERROR
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_false_property.py").write_text(FALSE_PROPERTY)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
