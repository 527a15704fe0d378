"""The window system behind the five-term recurrence, counted by a forced pair sweep.

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

Every count here comes from sweep.pair_completions, which places the
Fibonacci values from the top and never reads the R table.  The expected
side evaluates the case formulas and the closed form of the auxiliary count

    w_m = V(F_{m-3}) - R(F_{m-3}) - R(F_{m-5}) - V(F_{m-5})

on V(F_k) from moments.recurrence_step, iterated from moments.INITIAL, and on
R(F_k) = floor(k/2) (Carlitz), which partitions.check_carlitz checks against
a sweep; neither side builds a table.  A count with fixed top values enters
the sweep just below the smaller top, one start per choice of the values
between the two tops, and a count over the window is the count at cap F_m
minus the count at cap F_{m-1}.  One sweep per range gives each m's window
total, five cases, mixed pair {F_m, F_{m-2}} and w_m: the starts of every m
share each level, 22 states at most, so verify_case_range reaches
sweep.MAX_SWEEP_INDEX in one pass, as partitions.check_carlitz does.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetError
from .moments import INITIAL, recurrence_step
from .sweep import MAX_SWEEP_INDEX, pair_completions, sweep_fibs

# the classes of window pairs by their top values (F_{m-i}, F_{m-j}), i >= j, the
# smaller top on the X side; a split pair is counted in this order only
_TOPS = {
    "case1": (0, 0),
    "case2": (1, 1),
    "case3": (2, 2),
    "case4": (1, 0),
    "case5": (2, 1),
    "mixed": (2, 0),
}


def _class_counts(m_lo: int, m_hi: int) -> dict[int, dict[str, int]]:
    """By m in [m_lo, m_hi]: the window total, each class of _TOPS, and w_m, from one sweep.

    A class with tops F_a <= F_b enters the sweep at level a - 1: X so far is
    F_a, Y so far is F_b plus any subset of F_a, ..., F_{b-1}, and each such
    subset is one start (Y so far - F_a, cap - F_a).  w_m is the class with
    tops (F_{m-3}, F_{m-2}) at caps F_{m-1} and F_{m-3}.
    """
    if m_lo < 7:
        raise ValueError(f"the five-way case split needs m >= 7, got {m_lo}")
    fibs = sweep_fibs(m_hi)
    starts, tags = [], []  # tags: the m, the count start i adds to, and its sign
    for m in range(m_lo, m_hi + 1):
        starts += [(m, (0, fibs[m])), (m, (0, fibs[m - 1]))]
        tags += [(m, "total", 1), (m, "total", -1)]
        classes = [(name, m - i, m - j, m, m - 1) for name, (i, j) in _TOPS.items()]
        for name, a, b, hi, lo in classes + [("w", m - 3, m - 2, m - 1, m - 3)]:
            placed = [fibs[b] - fibs[a]]  # Y so far - F_a, shared by both caps
            for k in range(a, b):
                placed += [y + fibs[k] for y in placed]
            for sign, cap in ((1, fibs[hi] - fibs[a]), (-1, fibs[lo] - fibs[a])):
                starts += [(a - 1, (y, cap)) for y in placed]
                tags += [(m, name, sign)] * len(placed)
    out = {m: dict.fromkeys(("total", *_TOPS, "w"), 0) for m in range(m_lo, m_hi + 1)}
    for (m, name, sign), count in zip(tags, pair_completions(fibs, starts)):
        out[m][name] += sign * count
    return out


@dataclass(frozen=True)
class CaseBreakdown:
    m: int
    total: int
    case1: int
    case2: int
    case3: int
    case4: int
    case5: int
    w: int

    @property
    def case_sum(self) -> int:
        return self.case1 + self.case2 + self.case3 + self.case4 + self.case5


def case_breakdown(m: int, c: dict[str, int]) -> CaseBreakdown:
    """Split the window's solutions by their two largest parts, and w_m, from m's class counts c.

    Raises if a solution falls outside the five cases: for m >= 7 the maxima can only be
    F_m, F_{m-1} or F_{m-2}, so the window total must equal the sum of the top-value
    classes, and the mixed pair {F_m, F_{m-2}} cannot have equal sums.
    """
    if c["mixed"]:
        raise RuntimeError(
            f"{2 * c['mixed']} solutions with maxima (F_{m}, F_{m - 2}) "
            f"outside the five cases at m={m}"
        )
    bd = CaseBreakdown(
        m, c["total"], c["case1"], c["case2"], c["case3"], 2 * c["case4"], 2 * c["case5"], c["w"]
    )
    if bd.total != bd.case_sum:
        raise RuntimeError(
            f"{bd.total - bd.case_sum} solutions with a max part below F_{m - 2} "
            f"outside the five cases at m={m}"
        )
    return bd


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


def _fib_moments(m_hi: int) -> list[int]:
    """v[k] = V(F_k) for 2 <= k <= m_hi by the five-term recurrence; v[0] and v[1] are unused."""
    v = [0, 0, *INITIAL]
    for k in range(7, m_hi + 1):
        v.append(recurrence_step(v, k))
    return v


def _r(k: int) -> int:
    """R(F_k), by Carlitz's identity."""
    return k // 2


def _w(v: list[int], m: int) -> int:
    """The closed form of w_m on v[k] = V(F_k)."""
    return v[m - 3] - _r(m - 3) - _r(m - 5) - v[m - 5]


def _case_report(bd: CaseBreakdown, v: list[int]) -> CaseReport:
    m = bd.m
    case3_expected = v[m - 1] - 4 * v[m - 3] + 2 * v[m - 5] + 1
    case3_expected += 2 * (_r(m - 3) + _r(m - 5) - _r(m - 1))
    checks = (
        CaseCheck("case1", bd.case1, 1),
        CaseCheck("case2", bd.case2, v[m - 2] - 1),
        CaseCheck("case3", bd.case3, case3_expected),
        CaseCheck("case4", bd.case4, 2 * _r(m - 2)),
        CaseCheck("case5", bd.case5, 2 * (_w(v, m + 1) - _r(m - 3))),
        CaseCheck("case_sum", bd.case_sum, bd.total),
        CaseCheck("window_total", bd.total, v[m] - v[m - 1]),
        CaseCheck("w", bd.w, _w(v, m)),
    )
    return CaseReport(m=m, checks=checks)


def _refuse_past(m: int, budget: int) -> None:
    if m > budget:
        raise BudgetError(f"the case check at m={m} exceeds the budget of m <= {budget}")


def verify_case_range(m_lo: int, m_hi: int) -> list[CaseReport]:
    """Check each swept case count against its closed-form expression, for m_lo <= m <= m_hi.

    Also checks that the cases sum to the window total, that the total equals
    V(F_m) - V(F_{m-1}), and that the swept w_m matches its closed form.
    Every V on the expected side, w_{m+1} of case 5 included, comes from one
    run of the recurrence up to m_hi.  m_hi is refused past
    sweep.MAX_SWEEP_INDEX from m_hi alone, before any count.
    """
    if m_hi < m_lo:
        raise ValueError(f"empty range [{m_lo}, {m_hi}]")
    _refuse_past(m_hi, MAX_SWEEP_INDEX)
    v = _fib_moments(m_hi)
    return [_case_report(case_breakdown(m, c), v) for m, c in _class_counts(m_lo, m_hi).items()]


def verify_cases(m: int, budget: int = MAX_SWEEP_INDEX) -> CaseReport:
    """verify_case_range for the single m; budget is the largest m accepted."""
    _refuse_past(m, budget)
    return verify_case_range(m, m)[0]
