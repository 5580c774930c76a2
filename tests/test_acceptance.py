"""Acceptance suite: eleven criteria, each run per packaged instance.

Every criterion runs at its stated size and tolerance (exact integer
identities use zero tolerance; the numerical ones pin 1e-10 / 5e-3 bounds).
The checks read those values from module constants, which
``test_each_check_runs_at_its_stated_size`` pins.  Each test prints a
one-line pass report; run with ``pytest -s`` to see them live.
"""

from ietskew.algebra import transpose
from ietskew.skew import SkewCocycle, check_periodic_type, eigencocycles
from ietskew import cocycles, maharam
from ietskew import verification as V


def report(n, title, built, result):
    line = f"ACCEPTANCE {n:>2} {title} [{built.name}]: {result.status.upper()}"
    if result.residual is not None:
        line += f" (residual {result.residual:.2e})"
    print(line)
    assert result.status == "pass", f"{title} [{built.name}]: {result.detail}"


STATED = {
    V: {
        "ORACLE_LEVELS": 3,  # 1: k <= 3
        "IDENTITY_LEVELS": 4,  # 2: k <= 4
        "DICTIONARY_LEVELS": 3,  # 3: k <= 3
        "TAIL_PATHS": 1000,  # 4
        "TELESCOPE_LEVEL": 9,  # 4: the telescoped form
        "TELESCOPE_DRAWS": 60,  # 4
        "TELESCOPE_STEPS": 20,  # 4: n <= 20
        "WITNESS_LEVEL": 2,  # 5: level-2 skew towers
        "WITNESS_ALL_PAIRS": 22,  # 5: every pair up to 22 floors,
        "WITNESS_SAMPLES": 150,  # 5: else sampled pairs
        "COUNTING_LEVELS": 4,  # 7: k <= 4
        "MAHARAM_PSIS": 20,  # 8
        "MAHARAM_LEVEL": 5,  # 8: recurrence k <= 5
        "RECURRENCE_POWER": 3,  # 8: the counting-route recurrence
        "ORBIT_STEPS": 1_000_000,  # 9
        "ORBIT_FLOORS": 2 ** 16,  # 9: the towers that predict the orbit
        "MEASURE_TOL": 1e-10,  # 8, 9
        "ORBIT_TOL": 5e-3,  # 9
    },
    cocycles: {
        "MAX_REPETITION_EXPONENT": 10,  # 6: repetitions up to 2^10
        "MAX_TOTAL_WORD_LENGTH": 10_000_000,  # 6: letters of one repetition's words
    },
    maharam: {
        "CONTINUITY_LEVEL": 4,  # 10
        "GRID_REFINEMENTS": 3,  # 10: dyadic refinements
        "GRID_BOX": (-1.0, 1.0),  # 10: of [-1, 1]^m
    },
}


def test_each_check_runs_at_its_stated_size():
    for module, values in STATED.items():
        for name, value in values.items():
            assert getattr(module, name) == value, f"{module.__name__}.{name}"


def test_criterion_01_tower_oracle_equivalence(built):
    # combinatorial towers equal the float simulation exactly for k <= 3
    result = V.check_tower_oracle(built)
    report(1, "tower/word oracle equivalence", built, result)


def test_criterion_02_cocycle_identities_exact(built):
    # A^T phi = phi; letter counts A(k) = A(1)^k and column sums = q for
    # k <= 4; all exact integer identities
    result = V.check_cocycle_identities(built)
    report(2, "cocycle identities (zero tolerance)", built, result)
    basis = eigencocycles(built.tower.matrix)
    assert len(basis) >= 1
    assert check_periodic_type(built.tower.matrix, SkewCocycle(transpose(basis)))


def test_criterion_03_bratteli_dictionary(built):
    # path<->floor bijection exhaustive at k <= 3; floor(successor) =
    # floor + 1; exactly d maximal and d minimal paths per level
    result = V.check_bratteli_dictionary(built)
    report(3, "Bratteli dictionary (exhaustive k<=3)", built, result)


def test_criterion_04_tail_cocycle_identity(built):
    # 1000 random non-maximal paths: telescoped tail cocycle equals phi at
    # the source of edge one; Birkhoff form exact for n <= 20
    result = V.check_tail_cocycle(built, seed=built.spec.seed)
    report(4, "tail cocycle equals phi (exact)", built, result)


def test_criterion_05_tail_orbit_equivalence(built):
    # exhaustive level-2 skew towers: every floor shares the base's shift
    # image and the enumerated orbit supplies the witness for every pair
    result = V.check_tail_orbit(built, seed=built.spec.seed)
    report(5, "tail = orbit at level 2 (zero tolerance)", built, result)


def test_criterion_06_aperiodicity_certificate(built):
    # common-prefix certificate terminates with the full-lattice verdict,
    # and every stored field re-derives from the loop and phi
    result = V.check_certificate(built, seed=built.spec.seed)
    report(6, "aperiodicity certificate", built, result)


def test_criterion_07_level_counting_cocycle(built):
    # matrix powers are coefficient-exact against exhaustive path
    # enumeration for k <= 4; evaluation at 1 gives the incidence matrix
    result = V.check_level_counting(built)
    report(7, "level-counting cocycle (k<=4 exact)", built, result)


def test_criterion_08_maharam_invariance(built):
    # 20 random psi, 1000 random cylinders at levels <= 5: invariance and
    # quasi-invariance residuals <= 1e-10; recurrence residual <= 1e-10
    result = V.check_maharam(built, seed=built.spec.seed)
    report(8, "Maharam formula invariance (<=1e-10)", built, result)
    assert result.residual <= 1e-10


def test_criterion_09_psi_zero_consistency(built):
    # psi = 0 Perron vector matches the exchange lengths to 1e-10 and the
    # empirical visit frequencies of a 1e6-step float orbit to 5e-3
    result = V.check_psi_zero(built)
    report(9, "psi = 0 consistency", built, result)
    assert result.residual <= 1e-10


def test_criterion_10_continuity_modulus(built):
    # fixed cylinder family at level 4: adjacent-grid modulus decreases
    # monotonically across 3 dyadic refinements of [-1, 1]^m
    result = V.check_continuity(built)
    report(10, "weak-* continuity modulus", built, result)


def test_criterion_11_fault_injection(built):
    # a perturbed phi entry fails the periodic-type layer and gates the
    # rest; a word-order fault fails the dictionary layer the same way
    result = V.check_fault_injection(built)
    report(11, "fault injection localises failures", built, result)
