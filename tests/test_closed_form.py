import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
import sympy as sp

from fibvar.closed_form import (
    build_trace_system,
    closed_form_v,
    embed_coefficients,
    particular_part,
    solve_closed_form,
)
from fibvar.exact import CUBIC_MIN_POLY
from fibvar.moments import LAG_COEFFS, recurrence_step, v_at_fib


def test_characteristic_polynomial_factorization():
    # the recurrence's characteristic polynomial is (x - 1)(x + 1) times the
    # cubic whose roots the closed form is built on
    x = sp.symbols("x")
    char_poly = sp.Poly([1, *(-c for c in LAG_COEFFS)], x)
    cubic = sp.Poly(list(reversed(CUBIC_MIN_POLY)), x)
    assert char_poly == sp.Poly(x**5 - 2 * x**4 - 3 * x**3 + 4 * x**2 + 2 * x - 2, x)
    assert cubic == sp.Poly(x**3 - 2 * x**2 - 2 * x + 2, x)
    assert char_poly == sp.Poly((x - 1) * (x + 1), x) * cubic


def test_particular_part_values():
    assert particular_part(4) == 4
    assert particular_part(5) == Fraction(15, 4)
    assert particular_part(3) == Fraction(3, 4)
    with pytest.raises(ValueError):
        particular_part(1)


def test_particular_part_solves_recurrence_symbolically():
    # parity-coupled check: with a(m) = m^2/4 (even) and b(m) = m^2/4 - m/2
    # (odd), the forced recurrence must hold identically in m for both parities
    m = sp.symbols("m")
    a = m**2 / 4
    b = m**2 / 4 - m / 2
    even_residual = a - (
        2 * b.subs(m, m - 1)
        + 3 * a.subs(m, m - 2)
        - 4 * b.subs(m, m - 3)
        - 2 * a.subs(m, m - 4)
        + 2 * b.subs(m, m - 5)
        + 1
        - m  # floor(m/2) = m/2 at even m
    )
    odd_residual = b - (
        2 * a.subs(m, m - 1)
        + 3 * b.subs(m, m - 2)
        - 4 * a.subs(m, m - 3)
        - 2 * b.subs(m, m - 4)
        + 2 * a.subs(m, m - 5)
        + 2
        - m  # floor(m/2) = (m-1)/2 at odd m
    )
    assert sp.expand(even_residual) == 0
    assert sp.expand(odd_residual) == 0


def test_particular_part_matches_parity_split():
    for m in range(2, 30):
        if m % 2 == 0:
            assert particular_part(m) == Fraction(m * m, 4)
        else:
            assert particular_part(m) == Fraction(m * m, 4) - Fraction(m, 2)


def test_trace_system_layout():
    matrix, rhs = build_trace_system()
    assert rhs == [Fraction(1), Fraction(9, 4), Fraction(3), Fraction(33, 4), Fraction(17)]
    assert matrix[0] == [8, 14, 40, 1, 1]  # power sums p_2, p_3, p_4 at m = 2
    assert matrix[1] == [14, 40, 92, 1, -1]
    assert all(len(row) == 5 for row in matrix)


def test_exact_solution_coordinates(solution):
    assert solution.c_field.coords() == (
        Fraction(8, 37),
        Fraction(14, 37),
        Fraction(-13, 74),
    )
    assert solution.c3 == Fraction(5, 8)
    assert solution.c4 == Fraction(3, 8)


def test_coefficient_embeddings(solution):
    c1, c2, c3, c4, c5 = embed_coefficients(solution, digits=30)
    assert abs(c1 - Decimal("0.0735299087028896678099726384095")) < Decimal("1e-25")
    assert abs(c2 - Decimal("-0.467037197918000869667367881101")) < Decimal("1e-25")
    assert c3 == Decimal("0.625")
    assert c4 == Decimal("0.375")
    assert abs(c5 - Decimal("0.393507289215111201857395242691")) < Decimal("1e-25")


def test_coefficient_embeddings_are_correctly_rounded(solution):
    # reference: c(theta) = 8/37 + 14/37 theta - 13/74 theta^2 at sympy's roots
    # of the cubic to 140 digits, rounded once to d digits
    x = sp.symbols("x")
    lam2, lam5, lam1 = sorted(
        sp.Poly(x**3 - 2 * x**2 - 2 * x + 2, x).all_roots(), key=lambda r: sp.N(r, 30)
    )
    c_theta = [
        sp.Rational(8, 37) + sp.Rational(14, 37) * lam - sp.Rational(13, 74) * lam**2
        for lam in (lam1, lam2, lam5)
    ]
    reference = [Decimal(str(sp.N(c, 140))) for c in c_theta]
    for d in range(1, 101):
        c1, c2, _, _, c5 = embed_coefficients(solution, digits=d)
        with localcontext() as ctx:
            ctx.prec = d
            assert (c1, c2, c5) == tuple(+r for r in reference), d


def test_dominant_coefficient_sits_at_largest_root(solution):
    c1 = embed_coefficients(solution, digits=30)[0]
    assert c1 > 0
    assert solution.lambda1.value > abs(solution.lambda2.value) > solution.lambda5.value


def test_root_dominance_brackets(solution):
    lam1, lam2 = solution.lambda1, solution.lambda2
    assert lam1.low > 1
    assert lam1.low > abs(lam2.low) and lam1.low > abs(lam2.high)
    assert lam1.low > solution.lambda5.high


def test_closed_form_reproduces_initial_data(solution):
    assert [closed_form_v(m, solution) for m in range(2, 7)] == [2, 3, 7, 12, 26]


def test_closed_form_matches_tables(solution, series_f28):
    for m in range(2, 29):
        value = closed_form_v(m, solution)
        assert value.denominator == 1
        assert int(value) == series_f28.v(m)


def test_closed_form_integral_through_60(solution):
    for m in range(2, 61):
        value = closed_form_v(m, solution)
        assert value.denominator == 1 and value >= 0


def test_closed_form_satisfies_recurrence(solution):
    values = {m: closed_form_v(m, solution) for m in range(2, 1001)}
    for m in range(7, 1001):
        history = [values[m - lag] for lag in range(5, 0, -1)]
        assert values[m] == recurrence_step(history, m)


def test_homogeneous_part_satisfies_homogeneous_recurrence(solution):
    u = {m: closed_form_v(m, solution) - particular_part(m) for m in range(2, 1001)}
    for m in range(7, 1001):
        assert u[m] == 2 * u[m - 1] + 3 * u[m - 2] - 4 * u[m - 3] - 2 * u[m - 4] + 2 * u[m - 5]


def test_closed_form_leaves_no_allocation_behind(solution):
    # power sums are recomputed per call, so nothing grows with m between calls
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = closed_form_v(20000, solution)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert value.denominator == 1
    assert held < 10**6


@pytest.mark.parametrize("m", [1, 0, -3])
def test_closed_form_rejects_small_m(solution, m):
    with pytest.raises(ValueError, match=f"got {m}$"):
        closed_form_v(m, solution)


def test_solve_rejects_precision_below_one():
    with pytest.raises(ValueError, match="got 0$"):
        solve_closed_form(0)


def test_asymptotic_ratio_at_25(solution):
    c1 = embed_coefficients(solution, digits=40)[0]
    lam1 = solution.lambda1.value
    ratio = Decimal(v_at_fib(25)) / (c1 * lam1**25)
    assert abs(ratio - 1) < Decimal("1e-3")


def test_trace_solution_matches_direct_vandermonde(solution):
    # independent oracle: solve the original 5x5 system over the roots
    # (lambda_1, lambda_2, 1, -1, lambda_5) at 40-digit precision and compare
    # all five coefficients
    x = sp.symbols("x")
    cubic_roots = sp.Poly(x**3 - 2 * x**2 - 2 * x + 2, x).all_roots()
    by_value = sorted(cubic_roots, key=lambda r: sp.N(r, 30))
    lam2, lam5, lam1 = (sp.N(root, 40) for root in by_value)
    lams = [lam1, lam2, sp.Integer(1), sp.Integer(-1), lam5]
    matrix = sp.Matrix([[lam**m for lam in lams] for m in range(2, 7)])
    rhs = sp.Matrix([1, sp.Rational(9, 4), 3, sp.Rational(33, 4), 17])
    direct = matrix.LUsolve(rhs)
    mine = embed_coefficients(solution, digits=30)
    for got, want in zip(mine, direct):
        assert abs(sp.N(want - sp.Rational(str(got)), 30)) < sp.Rational(1, 10**20)
