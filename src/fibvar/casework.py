"""Brute-force verification of the window system behind the five-term recurrence.

V(F_m) - V(F_{m-1}) counts ordered pairs of subsets of distinct Fibonacci
values with equal sums in the window (F_{m-1}, F_m].  For m >= 7 every such
pair falls into exactly one of five cases according to the two largest parts
(max of the x side, max of the y side):

    1. both F_m                          -> exactly 1 solution
    2. both F_{m-1}                      -> V(F_{m-2}) - 1
    3. both F_{m-2}                      -> V(F_{m-1}) - 4V(F_{m-3}) + 2V(F_{m-5})
                                            - 2R(F_{m-1}) + 2R(F_{m-3})
                                            + 2R(F_{m-5}) + 1
    4. {F_m, F_{m-1}} split across sides -> 2 R(F_{m-2})
    5. {F_{m-1}, F_{m-2}} split          -> 2 (w_{m+1} - R(F_{m-3}))

Everything here is exhaustive enumeration over subsets, deliberately
independent of the count tables, so the case formulas (and the closed form of
the auxiliary count w_m) are checked against raw counting.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .errors import BudgetError
from .fibonacci import distinct_fib_upto, fib
from .moments import moments_from_counts, w_closed_form
from .partitions import r_table

DEFAULT_ENUM_BUDGET = 20  # largest Fibonacci index whose subset space we enumerate


def _check_budget(m: int, budget: int) -> None:
    if m > budget:
        raise BudgetError(
            f"enumeration at m={m} exceeds the budget cap {budget} "
            f"({2 ** (budget - 1)} subsets)"
        )


def _subset_buckets(top: int, lo: int, hi: int) -> dict[int, Counter]:
    """Subsets of the distinct Fibonacci values <= top: sum in (lo, hi] -> max part -> count.

    The values come in increasing order, so appending v to any subset of the
    smaller values makes v its max, and the running list of subset sums grows
    once per value.  A running sum above hi can never return to the window,
    so it is dropped.
    """
    buckets: dict[int, Counter] = defaultdict(Counter)
    sums = [0]
    for v in distinct_fib_upto(top):
        grown = [s + v for s in sums if s + v <= hi]
        for t in grown:
            if t > lo:
                buckets[t][v] += 1
        sums += grown
    return buckets


def w_bruteforce(m: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Exhaustive count of the auxiliary system behind case 5 / case 3.

    Counts pairs with the x side topped by F_{m-2}, the y side topped by
    F_{m-3}, equal totals in (F_{m-3}, F_{m-1}]: both sides are subsets of
    F_2..F_{m-2}, told apart by their max part.
    """
    if m < 7:
        raise ValueError(f"auxiliary count needs m >= 7, got {m}")
    _check_budget(m, budget)
    x_top, y_top = fib(m - 2), fib(m - 3)
    buckets = _subset_buckets(x_top, y_top, fib(m - 1))
    return sum(c[x_top] * c[y_top] for c in buckets.values())


@dataclass(frozen=True)
class CaseBreakdown:
    m: int
    total: int
    case1: int
    case2: int
    case3: int
    case4: int
    case5: int
    w_bruteforce: int

    @property
    def case_sum(self) -> int:
        return self.case1 + self.case2 + self.case3 + self.case4 + self.case5


def case_breakdown(m: int, budget: int = DEFAULT_ENUM_BUDGET) -> CaseBreakdown:
    """Partition every enumerated window solution by its two largest parts.

    Raises if any solution falls outside the five cases; for m >= 7 the
    maxima can only be F_m, F_{m-1} or F_{m-2}, and the mixed pair
    {F_m, F_{m-2}} cannot have equal sums.
    """
    if m < 7:
        raise ValueError(f"the five-way case split needs m >= 7, got {m}")
    _check_budget(m, budget)
    f_m, f_m1, f_m2 = fib(m), fib(m - 1), fib(m - 2)
    tallies = Counter()
    total = 0
    for counts_by_max in _subset_buckets(f_m, f_m1, f_m).values():
        for (mx, cx), (my, cy) in product(counts_by_max.items(), repeat=2):
            pairs = cx * cy
            total += pairs
            if mx == my == f_m:
                tallies[1] += pairs
            elif mx == my == f_m1:
                tallies[2] += pairs
            elif mx == my == f_m2:
                tallies[3] += pairs
            elif {mx, my} == {f_m, f_m1}:
                tallies[4] += pairs
            elif {mx, my} == {f_m1, f_m2}:
                tallies[5] += pairs
            else:
                raise RuntimeError(
                    f"solution with maxima ({mx}, {my}) outside the five cases at m={m}"
                )
    return CaseBreakdown(
        m=m,
        total=total,
        case1=tallies[1],
        case2=tallies[2],
        case3=tallies[3],
        case4=tallies[4],
        case5=tallies[5],
        w_bruteforce=w_bruteforce(m, budget=budget),
    )


class CaseCheck(NamedTuple):
    name: str
    actual: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.actual == self.expected


@dataclass(frozen=True)
class CaseReport:
    m: int
    checks: tuple[CaseCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_cases(m: int, budget: int = DEFAULT_ENUM_BUDGET) -> CaseReport:
    """Check each brute-forced case count against its closed-form expression.

    Also checks that the cases sum to the window total, that the total equals
    V(F_m) - V(F_{m-1}), and that the brute-forced w_m matches its closed
    form.  Case 5 references w_{m+1}, so m+1 must stay within budget.
    """
    if m < 7:
        raise ValueError(f"case verification needs m >= 7, got {m}")
    _check_budget(m + 1, budget)
    bd = case_breakdown(m, budget=budget)

    counts = r_table(fib(m))
    moments = moments_from_counts(counts)
    r_of = lambda k: counts.count(fib(k))
    v_of = lambda k: moments.v_at(fib(k))
    w_of = lambda k: w_closed_form(k, counts=counts, moments=moments)

    case3_expected = (
        v_of(m - 1)
        - 4 * v_of(m - 3)
        + 2 * v_of(m - 5)
        - 2 * r_of(m - 1)
        + 2 * r_of(m - 3)
        + 2 * r_of(m - 5)
        + 1
    )
    checks = (
        CaseCheck("case1", bd.case1, 1),
        CaseCheck("case2", bd.case2, v_of(m - 2) - 1),
        CaseCheck("case3", bd.case3, case3_expected),
        CaseCheck("case4", bd.case4, 2 * r_of(m - 2)),
        CaseCheck("case5", bd.case5, 2 * (w_of(m + 1) - r_of(m - 3))),
        CaseCheck("case_sum", bd.case_sum, bd.total),
        CaseCheck("window_total", bd.total, v_of(m) - v_of(m - 1)),
        CaseCheck("w", bd.w_bruteforce, w_of(m)),
    )
    return CaseReport(m=m, checks=checks)
