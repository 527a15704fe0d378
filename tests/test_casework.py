import pytest

from fibvar.casework import (
    CaseCheck,
    CaseReport,
    case_breakdown,
    verify_cases,
    w_bruteforce,
)
from fibvar.errors import BudgetError
from fibvar.moments import v_at_fib, w_closed_form


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


def test_case_verdicts_follow_their_sides():
    good, bad = CaseCheck("case1", 1, 1), CaseCheck("case2", 10, 11)
    assert good.ok and not bad.ok
    assert CaseReport(7, (good,)).passed
    assert not CaseReport(7, (good, bad)).passed


def test_verify_cases_needs_room_for_w_next():
    with pytest.raises(BudgetError):
        verify_cases(20)  # case 5 references w_21


def test_w_bruteforce_domain():
    with pytest.raises(ValueError):
        w_bruteforce(6)
