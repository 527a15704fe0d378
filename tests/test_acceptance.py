"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime bound is pinned here.
"""

import io
import time
from decimal import Decimal, localcontext

import pytest

from fibvar.analysis import exponent_report, write_figure_csv
from fibvar.casework import verify_cases
from fibvar.closed_form import closed_form_v, embed_coefficients, solve_closed_form
from fibvar.fibonacci import fib_list
from fibvar.moments import moment_table, recurrence_step, verify_lemma
from fibvar.partitions import check_carlitz, check_sqrt_bound
from table_reference import fib_moment_series

F = fib_list(30)


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # first numpy dispatch and table build are not what the runtime bounds
    # are about; pay them once up front
    moment_table(1000)


def _report(criterion: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed * 1000:.1f} ms, budget {budget * 1000:.0f} ms)")
    assert elapsed < budget


def test_criterion_01_initial_data():
    best = min(
        _timed(lambda: tuple(moment_table(8).v_at(F[m]) for m in range(2, 7)))[0]
        for _ in range(3)
    )
    values = tuple(moment_table(8).v_at(F[m]) for m in range(2, 7))
    assert values == (2, 3, 7, 12, 26)
    _report("1 (initial data)", best, 0.001)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_criterion_02_lemma_recurrence():
    elapsed, rows = _timed(lambda: verify_lemma(7, 28))
    assert len(rows) == 22
    for row in rows:
        assert row.lhs == row.rhs, row
    _report("2 (five-term recurrence, m in [7,28])", elapsed, 5.0)


def test_criterion_03_case_decomposition():
    def run():
        reports = [verify_cases(m) for m in range(7, 17)]
        series = fib_moment_series(16)
        return reports, series

    elapsed, (reports, series) = _timed(run)
    for report in reports:
        assert report.passed, report
        checks = {c.name: c for c in report.checks}
        assert checks["case_sum"].actual == checks["window_total"].actual
        assert checks["window_total"].actual == series.v(report.m) - series.v(report.m - 1)
        assert checks["w"].actual == fib_moment_series(report.m - 3).w(report.m)
    _report("3 (five cases + w, m in [7,16])", elapsed, 30.0)


def test_criterion_04_carlitz():
    elapsed, rows = _timed(lambda: check_carlitz(28))
    assert [row.m for row in rows] == list(range(2, 29))
    for row in rows:
        assert row.r_fib == row.m // 2, row
    _report("4 (Carlitz, n in [2,28])", elapsed, 5.0)


def test_criterion_05_sqrt_bound():
    elapsed, result = _timed(lambda: check_sqrt_bound(10**6))
    assert result.passed
    expected = [f * f - 1 for f in F[2:] if f * f - 1 <= 10**6]
    assert result.equality_positions == expected
    assert result.equality_positions[-1] == 974168  # 987^2 - 1
    _report("5 (sqrt bound to 1e6)", elapsed, 10.0)


def test_criterion_06_exact_closed_form():
    series = fib_moment_series(28)  # the DP side, not under this criterion's clock

    def run():
        sol = solve_closed_form()
        values = {m: closed_form_v(m, sol) for m in range(2, 61)}
        return sol, values

    elapsed, (sol, values) = _timed(run)
    for m in range(2, 29):
        assert values[m].denominator == 1
        assert int(values[m]) == series.v(m)
    for m in range(7, 61):
        history = [values[m - lag] for lag in range(5, 0, -1)]
        assert values[m] == recurrence_step(history, m)
    _report("6 (closed form: integral, matches DP, solves recurrence)", elapsed, 1.0)


def test_criterion_07_coefficient_vector():
    def run():
        sol = solve_closed_form()
        return embed_coefficients(sol, digits=30)

    elapsed, (c1, c2, c3, c4, c5) = _timed(run)
    displayed = (
        Decimal("0.0735"),
        Decimal("-0.467"),
        Decimal("0.625"),
        Decimal("0.375"),
        Decimal("0.394"),
    )
    tolerance = Decimal("0.0005")
    for got, want in zip((c1, c2, c3, c4, c5), displayed):
        assert abs(got - want) <= tolerance, (got, want)
    _report("7 (coefficient vector to ±0.0005)", elapsed, 1.0)


def test_criterion_08_asymptotics():
    def run():
        v30 = moment_table(F[30]).v_at(F[30])
        sol = solve_closed_form(precision_digits=40)
        with localcontext() as ctx:
            ctx.prec = 50
            c1 = embed_coefficients(sol, digits=50)[0]
            lam1 = sol.lambda1.value
            return Decimal(v30) / (c1 * lam1**30)

    elapsed, ratio = _timed(run)
    assert abs(ratio - 1) < Decimal("1e-6"), ratio
    _report("8 (V(F_30) ~ c1*lambda1^30 within 1e-6)", elapsed, 10.0)


def test_criterion_09_exponents():
    elapsed, c = _timed(lambda: exponent_report(30))
    assert abs(c.lam - Decimal("1.4404")) < Decimal("0.0001")
    assert abs(c.exponent_main - Decimal("1.89")) < Decimal("0.005")
    assert abs(c.exponent_cs - Decimal("1.88")) < Decimal("0.005")
    assert c.exponent_cs < c.exponent_main
    _report("9 (growth exponents)", elapsed, 1.0)


def test_criterion_10_figure_reproduction():
    out = io.StringIO()
    elapsed, _ = _timed(lambda: write_figure_csv(75025, out))
    lines = out.getvalue().splitlines()
    assert lines[0] == "H,V,norm_cs,norm_main"
    assert len(lines) == 75026  # header + one row per H
    norm_cs = {}
    for line in lines[1:]:
        h, _, cs, _ = line.split(",")
        norm_cs[int(h)] = float(cs)
    assert norm_cs[75025] > norm_cs[6765]
    _report("10 (figure: 75025 rows, norm_cs grows)", elapsed, 5.0)
