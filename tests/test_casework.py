import pytest

from fibvar.casework import (
    case_breakdown,
    count_window,
    verify_cases,
    w_bruteforce,
)
from fibvar.errors import BudgetError
from fibvar.moments import v_at_fib, w_closed_form


def test_count_window_small():
    assert count_window(4) == 4  # V(3) - V(2)
    assert count_window(5) == 5  # V(5) - V(3)
    assert count_window(7) == 27  # V(13) - V(8) = 53 - 26


@pytest.mark.parametrize("m", range(7, 14))
def test_count_window_equals_moment_difference(m):
    assert count_window(m) == v_at_fib(m) - v_at_fib(m - 1)


def test_count_window_domain_and_budget():
    with pytest.raises(ValueError):
        count_window(3)
    with pytest.raises(BudgetError):
        count_window(21)
    with pytest.raises(BudgetError):
        count_window(12, budget=10)


def test_w_bruteforce_matches_closed_form():
    for m in range(7, 17):
        assert w_bruteforce(m) == w_closed_form(m), m


def test_case_breakdown_m7():
    bd = case_breakdown(7)
    assert (bd.case1, bd.case2, bd.case3, bd.case4, bd.case5) == (1, 11, 3, 4, 8)
    assert bd.total == 27
    assert bd.case_sum == bd.total
    assert bd.w_bruteforce == 2


def test_case_breakdown_m12():
    bd = case_breakdown(12)
    assert (bd.case1, bd.case2, bd.case3, bd.case4, bd.case5) == (1, 673, 632, 10, 1080)
    assert bd.total == 2396


def test_case_breakdown_rejects_small_m():
    with pytest.raises(ValueError):
        case_breakdown(6)


@pytest.mark.parametrize("m", [7, 8, 12])
def test_verify_cases_passes(m):
    report = verify_cases(m)
    assert report.passed
    by_name = {check.name: check for check in report.checks}
    assert by_name["case1"].expected == 1
    assert by_name["window_total"].expected == v_at_fib(m) - v_at_fib(m - 1)
    if m == 7:
        assert by_name["case2"].expected == 11  # V(F_5) - 1
        assert by_name["case4"].expected == 4  # 2 R(F_5)


def test_verify_cases_needs_room_for_w_next():
    with pytest.raises(BudgetError):
        verify_cases(20)  # case 5 references w_21


def test_w_bruteforce_domain():
    with pytest.raises(ValueError):
        w_bruteforce(6)
