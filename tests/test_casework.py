import time
from collections import Counter, defaultdict
from itertools import product

import pytest

from fibvar import casework, sweep
from fibvar.casework import (
    CaseCheck,
    CaseReport,
    case_breakdown,
    verify_case_range,
    verify_cases,
)
from fibvar.closed_form import closed_form_v
from fibvar.errors import BudgetError
from fibvar.fibonacci import fib_list
from fibvar.moments import v_at_fib
from fibvar.sweep import MAX_SWEEP_INDEX
from table_reference import MAX_TABLE_INDEX, fib_moment_series

F = fib_list(40)


def subset_buckets(top, lo, hi):
    """Reference enumeration in plain Python: sum in (lo, hi] -> max part -> count."""
    buckets = defaultdict(Counter)
    sums = [0]
    for v in (f for f in F[2:] if f <= top):
        grown = [s + v for s in sums if s + v <= hi]
        for t in grown:
            if t > lo:
                buckets[t][v] += 1
        sums += grown
    return buckets


def reference_breakdown(m):
    """(total, case1..case5, w) tallied pair by pair from subset_buckets."""
    f_m, f_m1, f_m2 = F[m], F[m - 1], F[m - 2]
    cases = {
        (f_m, f_m): 1,
        (f_m1, f_m1): 2,
        (f_m2, f_m2): 3,
        (f_m, f_m1): 4,
        (f_m1, f_m): 4,
        (f_m1, f_m2): 5,
        (f_m2, f_m1): 5,
    }
    tallies = Counter()
    for by_max in subset_buckets(f_m, f_m1, f_m).values():
        for (mx, cx), (my, cy) in product(by_max.items(), repeat=2):
            tallies[cases[mx, my]] += cx * cy
    w = sum(c[f_m2] * c[F[m - 3]] for c in subset_buckets(f_m2, F[m - 3], f_m1).values())
    return (sum(tallies.values()), *(tallies[k] for k in range(1, 6)), w)


def test_w_bruteforce_matches_closed_form():
    # "swept" as in the CLI's verify-w rows: the counted side, not the formula
    for m in range(7, 17):
        assert case_breakdown(m).w == fib_moment_series(m - 3).w(m), m


def test_one_series_gives_every_w_up_to_its_range():
    series = fib_moment_series(17)
    for m in range(7, 21):
        assert series.w(m) == case_breakdown(m).w, m
    with pytest.raises(ValueError):
        series.w(21)


def test_case_breakdown_m7():
    bd = case_breakdown(7)
    assert (bd.case1, bd.case2, bd.case3, bd.case4, bd.case5) == (1, 11, 3, 4, 8)
    assert bd.total == 27
    assert bd.case_sum == bd.total
    assert bd.w == 2


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


def test_verify_cases_budget_counts_m_only():
    # case 5 needs w_{m+1}, which V up to F_{m-2} gives; only m meets the cap
    with pytest.raises(BudgetError, match=f"m <= {MAX_SWEEP_INDEX}"):
        verify_cases(MAX_SWEEP_INDEX + 1)
    # budget= lowers the cap; a higher one still meets the sweep's
    with pytest.raises(BudgetError):
        verify_cases(21, budget=20)
    assert verify_cases(21, budget=21).passed
    with pytest.raises(BudgetError, match=f"m <= {MAX_SWEEP_INDEX}"):
        verify_cases(MAX_SWEEP_INDEX + 1, budget=MAX_SWEEP_INDEX + 1)
    # refused from m alone: F_{10**6} has 208988 digits and is never formed
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        verify_cases(10**6)
    with pytest.raises(BudgetError):
        verify_case_range(7, 10**6)
    assert time.perf_counter() - start < 1.0


def test_verify_cases_reaches_the_table_cap():
    reports = verify_case_range(7, MAX_TABLE_INDEX)
    assert [r.m for r in reports] == list(range(7, MAX_TABLE_INDEX + 1))
    assert all(r.passed for r in reports)


def test_expected_side_matches_the_table_reference(series_f39):
    # the recurrence's V and Carlitz's R against the R table up to F_39, check by check
    s = series_f39
    for report in verify_case_range(7, MAX_TABLE_INDEX):
        m = report.m
        case3 = s.v(m - 1) - 4 * s.v(m - 3) + 2 * s.v(m - 5)
        case3 += -2 * s.r(m - 1) + 2 * s.r(m - 3) + 2 * s.r(m - 5) + 1
        expected = {
            "case1": 1,
            "case2": s.v(m - 2) - 1,
            "case3": case3,
            "case4": 2 * s.r(m - 2),
            "case5": 2 * (s.w(m + 1) - s.r(m - 3)),
            "window_total": s.v(m) - s.v(m - 1),
            "w": s.w(m),
        }
        got = {c.name: c.expected for c in report.checks if c.name != "case_sum"}
        assert got == expected, m


def test_verify_cases_reaches_past_the_table():
    reports = verify_case_range(40, 60)
    assert [r.m for r in reports] == list(range(40, 61))
    assert all(r.passed for r in reports)
    assert verify_cases(MAX_SWEEP_INDEX).passed


def test_range_is_the_single_m_call_repeated():
    reports = verify_case_range(7, 21)
    assert reports == [verify_cases(m) for m in range(7, 22)]


def test_range_builds_one_series(monkeypatch):
    # one run of the recurrence up to m_hi serves every m of the range
    built = []
    original = casework._fib_moments

    def counted(m_hi):
        built.append(m_hi)
        return original(m_hi)

    monkeypatch.setattr(casework, "_fib_moments", counted)
    verify_case_range(7, 20)
    assert built == [20]


@pytest.mark.parametrize("m_lo, m_hi", [(6, 8), (9, 8)])
def test_range_rejects_bad_bounds(m_lo, m_hi):
    with pytest.raises(ValueError):
        verify_case_range(m_lo, m_hi)


@pytest.mark.parametrize("m", range(7, 23))
def test_enumeration_matches_reference(m):
    # the sweep against the plain-Python enumeration, field by field
    bd = case_breakdown(m)
    fields = (bd.total, bd.case1, bd.case2, bd.case3, bd.case4, bd.case5, bd.w)
    assert fields == reference_breakdown(m)


@pytest.mark.parametrize("m", [100, 300, 1000])
def test_sweep_matches_the_closed_forms_far_past_the_table(m, solution):
    # R(F_k) = floor(k/2) by Carlitz; w_k from its closed form on the same V and R
    def v(k):
        return closed_form_v(k, solution)

    def r(k):
        return k // 2

    def w(k):
        return v(k - 3) - r(k - 3) - r(k - 5) - v(k - 5)

    assert casework._class_counts(m)["mixed"] == 0
    bd = case_breakdown(m)
    assert bd.total == v(m) - v(m - 1)
    assert bd.case1 == 1
    assert bd.case2 == v(m - 2) - 1
    assert bd.case3 == (
        v(m - 1) - 4 * v(m - 3) + 2 * v(m - 5) - 2 * r(m - 1) + 2 * r(m - 3) + 2 * r(m - 5) + 1
    )
    assert bd.case4 == 2 * r(m - 2)
    assert bd.case5 == 2 * (w(m + 1) - r(m - 3))
    assert bd.w == w(m)


def test_case_breakdown_is_refused_past_the_sweep_cap():
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"F_{sweep.MAX_SWEEP_INDEX + 1}"):
        case_breakdown(sweep.MAX_SWEEP_INDEX + 1)
    assert time.perf_counter() - start < 1.0


def _patched_class_counts(monkeypatch, change):
    original = casework._class_counts

    def patched(m):
        counts = original(m)
        change(counts)
        return counts

    monkeypatch.setattr(casework, "_class_counts", patched)


def test_case_breakdown_sweeps_once(monkeypatch):
    calls = []
    original = casework.pair_completions

    def counted(fibs, starts):
        calls.append(max(k for k, _ in starts))
        return original(fibs, starts)

    monkeypatch.setattr(casework, "pair_completions", counted)
    case_breakdown(9)
    assert calls == [9]


def test_stray_max_part_is_rejected(monkeypatch):
    # a window total above its top-value classes: a solution with a max part below F_{m-2}
    def add_stray(counts):
        counts["total"] += 1

    _patched_class_counts(monkeypatch, add_stray)
    with pytest.raises(RuntimeError, match="outside the five cases"):
        case_breakdown(9)


def test_mixed_top_pair_is_rejected(monkeypatch):
    def overlap(counts):
        counts["mixed"] += 1
        counts["total"] += 2  # both orders, so the classes still sum to the total

    _patched_class_counts(monkeypatch, overlap)
    with pytest.raises(RuntimeError, match="outside the five cases"):
        case_breakdown(9)


def test_verify_cases_peak_memory(peak_bytes):
    # about 30 KB of sweep and no table: the R table up to F_21 alone would be 87.6 KB
    assert peak_bytes(lambda: verify_cases(21, budget=22)) < 2**16
