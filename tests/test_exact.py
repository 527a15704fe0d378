import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fibvar import exact
from fibvar.closed_form import build_trace_system
from fibvar.exact import (
    CAUCHY_BOUND,
    CUBIC_MIN_POLY,
    SingularMatrixError,
    _negative_at,
    isolate_real_roots,
    power_traces,
    solve_linear_system,
)


def cubic(x: Fraction) -> Fraction:
    c0, c1, c2, c3 = CUBIC_MIN_POLY
    return c0 + x * (c1 + x * (c2 + x * c3))


def level(precision: Fraction) -> int:
    """The least e >= 2 with cell width 3/2^e <= precision."""
    e = 2
    while Fraction(CAUCHY_BOUND, 1 << e) > precision:
        e += 1
    return e


def bisection_cells(precision: Fraction) -> tuple[int, list[int]]:
    """Reference for isolate_real_roots: the level e and the cells n.

    One bisection step per level: scan the cells 3n/4 on [-3, 3], then halve
    each sign-change cell toward its sign change until its width 3/2^e is at
    most precision.
    """
    scan = 2
    cells = [n for n in range(-4, 4) if _negative_at(n, scan) != _negative_at(n + 1, scan)]
    e = level(precision)
    found = []
    for n in reversed(cells):
        low_negative = _negative_at(n, scan)
        for k in range(scan + 1, e + 1):
            n = 2 * n + 1 if _negative_at(2 * n + 1, k) == low_negative else 2 * n
        found.append(n)
    return e, found


def newton_cells(digits: int) -> list[tuple[Fraction, Fraction]]:
    return [(r.low, r.high) for r in isolate_real_roots(digits)]


def cells_at(e: int, cells: list[int]) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(CAUCHY_BOUND * n, 1 << e), Fraction(CAUCHY_BOUND * (n + 1), 1 << e)) for n in cells]


def test_power_trace_seeds_and_recurrence():
    # reference: the seeds and the three-term recurrence of the cubic, iterated
    reference = [3, 2, 8]
    while len(reference) <= 3000:
        reference.append(2 * reference[-1] + 2 * reference[-2] - 2 * reference[-3])
    assert reference[:6] == [3, 2, 8, 14, 40, 92]
    for k in range(3001):
        assert power_traces(k)[0] == reference[k], k
    with pytest.raises(ValueError):
        power_traces(-1)


def test_power_trace_matches_numeric_roots():
    roots = isolate_real_roots(40)
    for k in range(41):
        numeric = sum(r.value**k for r in roots)
        assert abs(numeric - Decimal(int(power_traces(k)[0]))) < Decimal("1e-20") * max(
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


def gauss_jordan(matrix, rhs):
    """Reference for solve_linear_system: plain Fraction Gauss-Jordan; when singular, the
    column where no pivot was found."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if p is None:
            return k
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [row[n] for row in rows]


def test_solve_the_trace_system():
    g0, g1, g2, c3, c4 = solve_linear_system(*build_trace_system())
    assert (g0, g1, g2) == (Fraction(8, 37), Fraction(14, 37), Fraction(-13, 74))
    assert (c3, c4) == (Fraction(5, 8), Fraction(3, 8))


@pytest.mark.parametrize("seed", range(6))
def test_solve_matches_gauss_jordan_on_random_systems(seed):
    # even seeds: large integers; odd seeds: small fractions; seeds 4 and 5 zero the first
    # pivot, so they need a row swap.  At every size 1..8 there are also systems of entries
    # in {-1, 0, 1}, which meet zero pivots at any step, and systems with a row that is a
    # multiple of another, which are singular; the solver must name the reference's column.
    rng = random.Random(seed)
    if seed % 2:
        entry = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    else:
        entry = lambda: Fraction(rng.randint(-10**6, 10**6))
    sparse = lambda: rng.randint(-1, 1)
    for n in range(1, 9):
        for kind in ("dense", "sparse", "dependent"):
            for _ in range(10):
                draw = sparse if kind == "sparse" else entry
                matrix = [[draw() for _ in range(n)] for _ in range(n)]
                if seed >= 4:
                    matrix[0][0] = 0
                if kind == "dependent" and n > 1:
                    a, b = rng.sample(range(n), 2)
                    matrix[b] = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * x for x in matrix[a]]
                rhs = [entry() for _ in range(n)]
                expected = gauss_jordan(matrix, rhs)
                if isinstance(expected, int):
                    with pytest.raises(SingularMatrixError, match=f"^no pivot in column {expected}$"):
                        solve_linear_system(matrix, rhs)
                else:
                    assert solve_linear_system(matrix, rhs) == expected


def test_singular_five_by_five_detected():
    rng = random.Random(7)
    matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)] for _ in range(4)]
    matrix.append([2 * a - Fraction(1, 3) * b for a, b in zip(matrix[0], matrix[2])])
    assert gauss_jordan(matrix, [1, 2, 3, 4, 5]) == 4
    with pytest.raises(SingularMatrixError, match="^no pivot in column 4$"):
        solve_linear_system(matrix, [1, 2, 3, 4, 5])


@st.composite
def square_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix, draw(st.lists(entries, min_size=n, max_size=n))


@settings(max_examples=50)
@given(square_systems())
def test_solver_reproduces_rhs_exactly(system):
    matrix, rhs = system
    n = len(matrix)
    try:
        solution = solve_linear_system(matrix, rhs)
    except SingularMatrixError:
        det = sp.Matrix(n, n, [sp.Rational(f.numerator, f.denominator) for row in matrix for f in row]).det()
        assert det == 0
        return
    for row, b in zip(matrix, rhs):
        assert sum(c * x for c, x in zip(row, solution)) == b


def test_isolate_roots_of_the_cubic():
    # irreducible over Q, so no rational grid point or midpoint is a root
    x = sp.symbols("x")
    assert sp.Poly(list(reversed(CUBIC_MIN_POLY)), x, domain="QQ").is_irreducible
    roots = isolate_real_roots(30)
    assert len(roots) == 3
    # descending order, matching ~2.4812 > ~0.6889 > ~-1.1701
    values = [r.value for r in roots]
    assert values == sorted(values, reverse=True)
    assert abs(values[0] - Decimal("2.481194304092015622633537241217")) < Decimal("1e-29")
    assert abs(values[1] - Decimal("0.688892182534018100069718523209")) < Decimal("1e-29")
    assert abs(values[2] - Decimal("-1.170086486626033722703255764425")) < Decimal("1e-29")
    for root in roots:
        assert root.high - root.low <= Fraction(1, 10**30)
        assert cubic(root.low) * cubic(root.high) < 0
        # Cauchy bound for the monic cubic: all roots in [-3, 3]
        assert Fraction(-3) <= root.low < root.high <= Fraction(3)
    # brackets pairwise disjoint
    assert roots[2].high < roots[1].low and roots[1].high < roots[0].low


def test_isolate_roots_honors_precision():
    root = isolate_real_roots(50)[0]
    assert root.high - root.low <= Fraction(1, 10**50)
    with pytest.raises(ValueError):
        isolate_real_roots(0)


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
    roots = isolate_real_roots(digits)
    ends = [(r.low.numerator, r.low.denominator, r.high.numerator, r.high.denominator) for r in roots]
    assert hashlib.sha256(repr(ends).encode()).hexdigest() == digest


def test_newton_brackets_equal_bisection_for_every_decimal_precision_to_400():
    # the dyadic cells nest, so each level's cell is the deepest cell shifted
    deep_e, deep = bisection_cells(Fraction(1, 10**400))
    for d in range(1, 401):
        e = level(Fraction(1, 10**d))
        assert newton_cells(d) == cells_at(e, [n >> (deep_e - e) for n in deep]), d


def test_isolate_roots_past_the_int_str_digit_limit():
    precision = Fraction(1, 10**5000)
    roots = isolate_real_roots(5000)
    assert len(roots) == 3
    for root in roots:
        assert precision / 2 < root.high - root.low <= precision
        assert cubic(root.low) * cubic(root.high) < 0
    assert roots[2].high < roots[1].low and roots[1].high < roots[0].low


def test_a_cell_without_a_sign_change_is_refused(monkeypatch):
    monkeypatch.setattr(exact, "_newton_root", lambda cell, bits: 0)
    with pytest.raises(RuntimeError, match="no sign change"):
        isolate_real_roots(20)
