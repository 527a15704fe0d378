from collections import Counter, defaultdict
from itertools import product

import numpy as np
import pytest

from fibvar import casework
from fibvar.casework import (
    CaseCheck,
    CaseReport,
    case_breakdown,
    verify_cases,
)
from fibvar.errors import BudgetError
from fibvar.fibonacci import distinct_fib_upto, fib
from fibvar.moments import fib_moment_series, v_at_fib


def subset_buckets(top, lo, hi):
    """Reference enumeration in plain Python: sum in (lo, hi] -> max part -> count."""
    buckets = defaultdict(Counter)
    sums = [0]
    for v in distinct_fib_upto(top):
        grown = [s + v for s in sums if s + v <= hi]
        for t in grown:
            if t > lo:
                buckets[t][v] += 1
        sums += grown
    return buckets


def reference_breakdown(m):
    """(total, case1..case5, w) tallied pair by pair from subset_buckets."""
    f_m, f_m1, f_m2 = fib(m), fib(m - 1), fib(m - 2)
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
    w = sum(c[f_m2] * c[fib(m - 3)] for c in subset_buckets(f_m2, fib(m - 3), f_m1).values())
    return (sum(tallies.values()), *(tallies[k] for k in range(1, 6)), w)


def test_w_bruteforce_matches_closed_form():
    for m in range(7, 17):
        assert case_breakdown(m).w_bruteforce == fib_moment_series(m - 3).w(m), m


def test_one_series_gives_every_w_up_to_its_range():
    series = fib_moment_series(17)
    for m in range(7, 21):
        assert series.w(m) == case_breakdown(m).w_bruteforce, m
    with pytest.raises(ValueError):
        series.w(21)


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


def test_verify_cases_budget_counts_m_only():
    # case 5 needs w_{m+1}, which comes from the tables, not from enumeration
    with pytest.raises(BudgetError):
        verify_cases(21)
    assert verify_cases(20).passed


@pytest.mark.parametrize("m", range(7, 23))
def test_enumeration_matches_reference(m):
    bd = case_breakdown(m, budget=23)
    fields = (bd.total, bd.case1, bd.case2, bd.case3, bd.case4, bd.case5, bd.w_bruteforce)
    assert fields == reference_breakdown(m)


def _patched_window_counts(monkeypatch, change):
    original = casework._window_counts

    def patched(top, lo, hi):
        counts = original(top, lo, hi)
        change(counts, top)
        return counts

    monkeypatch.setattr(casework, "_window_counts", patched)


def test_case_breakdown_enumerates_once(monkeypatch):
    calls = []
    _patched_window_counts(monkeypatch, lambda counts, top: calls.append(top))
    case_breakdown(9)
    assert calls == [fib(9)]


def test_stray_max_part_is_rejected(monkeypatch):
    def add_stray(counts, top):
        counts[fib(4)] = np.ones_like(counts[top])

    _patched_window_counts(monkeypatch, add_stray)
    with pytest.raises(RuntimeError, match="outside the five cases"):
        case_breakdown(9)


def test_mixed_top_pair_is_rejected(monkeypatch):
    def overlap(counts, top):
        f_m2 = fib(7)  # F_{m-2} at m = 9, where top = F_9
        counts[f_m2] = counts[f_m2].copy()
        counts[f_m2][np.flatnonzero(counts[top])[0]] += 1

    _patched_window_counts(monkeypatch, overlap)
    with pytest.raises(RuntimeError, match="outside the five cases"):
        case_breakdown(9)


def test_verify_cases_peak_memory(peak_bytes):
    assert peak_bytes(lambda: verify_cases(21, budget=22)) <= 8 * 2**20

