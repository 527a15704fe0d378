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
independent of the R table, so the case formulas and the closed form of the
auxiliary count w_m, evaluated on moments.fib_moment_series, are checked
against raw counting.  The enumeration is over numpy int64 arrays of running
subset sums, grown once per Fibonacci value, with the sums that land in the
window binned by their max part; one enumeration over (F_{m-3}, F_m] serves
both the five cases and w_m, whose check is the "w" row of verify_cases.  It
keeps every subset sum up to F_m, A(F_m) of them (349,536 at m = 21), and
peaks near 21 bytes per sum kept (the array, its grown part and their
concatenation): 6.9 MB for verify_cases(21).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError
from .fibonacci import distinct_fib_upto, fib
from .moments import fib_moment_series

DEFAULT_ENUM_BUDGET = 20  # largest Fibonacci index whose subset space we enumerate


def _window_counts(top: int, lo: int, hi: int) -> dict[int, np.ndarray]:
    """Subsets of the distinct Fibonacci values <= top, binned by max part.

    Returns max part v -> counts, where counts[t - lo - 1] is the number of
    subsets with max part v and sum t, for lo < t <= hi; max parts with no
    sum in the window are left out.  The values come in increasing order, so
    adding v to every subset sum of the smaller values gives exactly the sums
    whose max part is v, and the array of running sums grows once per value.
    A running sum above hi can never return to the window, so it is dropped.
    """
    counts: dict[int, np.ndarray] = {}
    sums = np.zeros(1, dtype=np.int64)
    for v in distinct_fib_upto(top):
        grown = sums + v
        grown = grown[grown <= hi]
        in_window = grown[grown > lo]
        if in_window.size:
            counts[v] = np.bincount(in_window - (lo + 1), minlength=hi - lo)
        sums = np.concatenate((sums, grown))
    return counts


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

    A pair of subsets with equal sum t and maxima (mx, my) is counted by the
    product of their counts at t, so each case is a dot product of two count
    vectors, and the window total is |a + b + d|^2 for the F_m, F_{m-1} and
    F_{m-2} vectors a, b, d.  Raises if any solution falls outside the five
    cases; for m >= 7 the maxima can only be F_m, F_{m-1} or F_{m-2}, and the
    mixed pair {F_m, F_{m-2}} cannot have equal sums.  One enumeration over
    (F_{m-3}, F_m] also gives w_bruteforce, the exhaustive w_m, from the part
    of that range below the cases' window: pairs with the x side topped by
    F_{m-2}, the y side by F_{m-3}, and equal totals in (F_{m-3}, F_{m-1}].
    """
    if m < 7:
        raise ValueError(f"the five-way case split needs m >= 7, got {m}")
    if m > budget:
        raise BudgetError(
            f"enumeration at m={m} exceeds the budget cap {budget} ({2 ** (budget - 1)} subsets)"
        )
    f_m, f_m1, f_m2, f_m3 = fib(m), fib(m - 1), fib(m - 2), fib(m - 3)
    counts = _window_counts(f_m, f_m3, f_m)
    # the first F_{m-1} - F_{m-3} = F_{m-2} sums are w_m's window (F_{m-3}, F_{m-1}]
    window = {v: c[f_m2:] for v, c in counts.items()}
    stray = sorted(v for v, c in window.items() if c.any() and v not in (f_m, f_m1, f_m2))
    if stray:
        raise RuntimeError(f"solution with max part {stray[0]} outside the five cases at m={m}")
    # F_m, F_{m-1} + F_{m-2} and 2 F_{m-2} = F_{m-2} + F_{m-3} + F_{m-4} are window sums
    a, b, d = window[f_m], window[f_m1], window[f_m2]
    if a @ d:
        raise RuntimeError(f"solution with maxima ({f_m}, {f_m2}) outside the five cases at m={m}")
    every = a + b + d
    return CaseBreakdown(
        m=m,
        total=int(every @ every),
        case1=int(a @ a),
        case2=int(b @ b),
        case3=int(d @ d),
        case4=2 * int(a @ b),
        case5=2 * int(b @ d),
        w_bruteforce=int(counts[f_m2][:f_m2] @ counts[f_m3][:f_m2]),
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
    form.  Every R, V and w on the expected side, w_{m+1} of case 5
    included, comes from one fib_moment_series(m), so only the enumeration
    at m counts against the budget.
    """
    bd = case_breakdown(m, budget=budget)
    s = fib_moment_series(m)
    case3_expected = (
        s.v(m - 1)
        - 4 * s.v(m - 3)
        + 2 * s.v(m - 5)
        - 2 * s.r(m - 1)
        + 2 * s.r(m - 3)
        + 2 * s.r(m - 5)
        + 1
    )
    checks = (
        CaseCheck("case1", bd.case1, 1),
        CaseCheck("case2", bd.case2, s.v(m - 2) - 1),
        CaseCheck("case3", bd.case3, case3_expected),
        CaseCheck("case4", bd.case4, 2 * s.r(m - 2)),
        CaseCheck("case5", bd.case5, 2 * (s.w(m + 1) - s.r(m - 3))),
        CaseCheck("case_sum", bd.case_sum, bd.total),
        CaseCheck("window_total", bd.total, s.v(m) - s.v(m - 1)),
        CaseCheck("w", bd.w_bruteforce, s.w(m)),
    )
    return CaseReport(m=m, checks=checks)
