import hashlib
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fibvar.exact import (
    CUBIC_MIN_POLY,
    SingularMatrixError,
    isolate_real_roots,
    power_trace,
    solve_linear_system,
)


def cubic(x: Fraction) -> Fraction:
    c0, c1, c2, c3 = CUBIC_MIN_POLY
    return c0 + x * (c1 + x * (c2 + x * c3))


def test_power_trace_seeds_and_recurrence():
    assert [power_trace(k) for k in range(6)] == [3, 2, 8, 14, 40, 92]
    for k in range(3, 30):
        assert power_trace(k) == 2 * power_trace(k - 1) + 2 * power_trace(k - 2) - 2 * power_trace(k - 3)
    with pytest.raises(ValueError):
        power_trace(-1)


def test_power_trace_matches_numeric_roots():
    roots = isolate_real_roots(Fraction(1, 10**40))
    for k in range(41):
        numeric = sum(r.value**k for r in roots)
        assert abs(numeric - Decimal(int(power_trace(k)))) < Decimal("1e-20") * max(
            Decimal(1), abs(numeric)
        )


def test_solve_identity_system():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    b = [Fraction(5), Fraction(-1, 3), Fraction(7, 2)]
    assert solve_linear_system(eye, b) == b


def test_solve_two_by_two():
    solution = solve_linear_system([[1, 1], [1, -1]], [1, 0])
    assert solution == [Fraction(1, 2), Fraction(1, 2)]


def test_solve_requires_pivoting():
    solution = solve_linear_system([[0, 1], [1, 0]], [3, 4])
    assert solution == [Fraction(4), Fraction(3)]


def test_singular_matrix_detected():
    with pytest.raises(SingularMatrixError):
        solve_linear_system([[1, 1], [2, 2]], [1, 2])


def test_solver_rejects_malformed_input():
    with pytest.raises(ValueError):
        solve_linear_system([[1, 2, 3], [4, 5, 6]], [1, 2])


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=3, max_size=3),
)
def test_solver_reproduces_rhs_exactly(matrix, rhs):
    try:
        solution = solve_linear_system(matrix, rhs)
    except SingularMatrixError:
        det = sp.Matrix(3, 3, [sp.Rational(f.numerator, f.denominator) for row in matrix for f in row]).det()
        assert det == 0
        return
    for row, b in zip(matrix, rhs):
        assert sum(c * x for c, x in zip(row, solution)) == b


def test_isolate_roots_of_the_cubic():
    # irreducible over Q, so no rational grid point or midpoint is a root
    x = sp.symbols("x")
    assert sp.Poly(list(reversed(CUBIC_MIN_POLY)), x, domain="QQ").is_irreducible
    roots = isolate_real_roots(Fraction(1, 10**30))
    assert len(roots) == 3
    # descending order, matching ~2.4812 > ~0.6889 > ~-1.1701
    values = [r.value for r in roots]
    assert values == sorted(values, reverse=True)
    assert abs(values[0] - Decimal("2.481194304092015622633537241217")) < Decimal("1e-29")
    assert abs(values[1] - Decimal("0.688892182534018100069718523209")) < Decimal("1e-29")
    assert abs(values[2] - Decimal("-1.170086486626033722703255764425")) < Decimal("1e-29")
    for root in roots:
        assert root.high - root.low <= root.precision
        assert cubic(root.low) * cubic(root.high) < 0
        # Cauchy bound for the monic cubic: all roots in [-3, 3]
        assert Fraction(-3) <= root.low < root.high <= Fraction(3)
    # brackets pairwise disjoint
    assert roots[2].high < roots[1].low and roots[1].high < roots[0].low


def test_isolate_roots_honors_precision():
    root = isolate_real_roots(Fraction(1, 10**50))[0]
    assert root.high - root.low <= Fraction(1, 10**50)
    with pytest.raises(ValueError):
        isolate_real_roots(Fraction(0))


@pytest.mark.parametrize(
    "digits, digest",
    [
        (30, "72a4f6af84e357d8e58d086bba7fbc94be2b882fc56bdc9bac3beaf830289fd5"),
        (155, "95c4f1d67427e9dfb5cf1b7ee3b0a4c1ca407cd25d757241b5c3aa18fe7cbc96"),
        (360, "e235bfd51e85271ebeff31fcdf08a40ac4896dfdd43dd6ad4a2ebc5241490841"),
    ],
)
def test_isolate_roots_brackets_are_pinned(digits, digest):
    # digests of the exact (low, high) brackets, which the published roots
    # and exponents are computed from
    roots = isolate_real_roots(Fraction(1, 10**digits))
    ends = [(r.low.numerator, r.low.denominator, r.high.numerator, r.high.denominator) for r in roots]
    assert hashlib.sha256(repr(ends).encode()).hexdigest() == digest
