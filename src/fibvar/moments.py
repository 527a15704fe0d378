"""First and second moments of the partition counts, and the five-term recurrence.

A(H) = sum_{n<=H} R(n) and V(H) = sum_{n<=H} R(n)^2 over a range come from
moment_table, as prefix-sum arrays: the whole-array API and the tests'
reference, where the CSV commands stream them from analysis.moment_rows.
V(F_m) at a single Fibonacci checkpoint comes from v_at_fib, one start of
the pair sweep of fibvar.sweep, which builds no table.  Along the
checkpoints the second moment satisfies, for m >= 7,

    V(F_m) = 2 V(F_{m-1}) + 3 V(F_{m-2}) - 4 V(F_{m-3}) - 2 V(F_{m-4})
             + 2 V(F_{m-5}) + 1 - 2*floor(m/2),

which LAG_COEFFS and recurrence_step state once and verify_lemma checks as
an identity between two independently computed sides.  verify_lemma takes
V(F_m) from sweep.fib_pair_counts, so it reaches m = sweep.MAX_SWEEP_INDEX.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .partitions import _fill_r, _table_entries
from .sweep import fib_pair_counts, pair_completions, sweep_fibs


@dataclass(frozen=True)
class MomentTable:
    """Prefix sums a[n] = A(n), v[n] = V(n) for 0 <= n <= h_max.

    a and v are the two C-contiguous rows of one 2x(h_max+1) int64 buffer, so a
    caller that keeps one of them keeps both.
    """

    h_max: int
    a: np.ndarray
    v: np.ndarray

    def v_at(self, n: int) -> int:
        if not 0 <= n <= self.h_max:
            raise ValueError(f"n={n} outside table range [0, {self.h_max}]")
        return int(self.v[n])


def moment_table(h_max: int) -> MomentTable:
    """Build A and V over [0, h_max], 16 bytes per entry: R fills row a of a
    two-row table and R^2 row v, then one cumsum along each row turns them
    into A and V, every pass at a unit stride."""
    a, v = np.empty((2, _table_entries(h_max)), dtype=np.int64)
    _fill_r(a)
    np.multiply(a, a, out=v)
    np.cumsum(a, out=a)
    np.cumsum(v, out=v)
    return MomentTable(h_max=h_max, a=a, v=v)


def v_at_fib(m: int) -> int:
    """V(F_m) for 2 <= m <= sweep.MAX_SWEEP_INDEX: the pairs of subsets with equal sums <= F_m."""
    fibs = sweep_fibs(m)
    return pair_completions(fibs, [(m, (0, fibs[m]))])[0]


LAG_COEFFS = (2, 3, -4, -2, 2)  # the factors of V(F_{m-1}) .. V(F_{m-5})
INITIAL = (2, 3, 7, 12, 26)  # V(F_2)..V(F_6)


def recurrence_step(history, m: int):
    """The recurrence's V(F_m): history[-1] is the value at m-1, back to history[-5] at m-5."""
    homog = sum(c * history[-lag] for lag, c in enumerate(LAG_COEFFS, start=1))
    return homog + 1 - 2 * (m // 2)


class LemmaRow(NamedTuple):
    m: int
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def verify_lemma(m_lo: int, m_hi: int) -> list[LemmaRow]:
    """Compare V(F_m) from the sweep against the five-term recurrence.

    The left side is sweep.fib_pair_counts's V(F_m), which counts pairs of
    subsets and never uses the recurrence; the right side is recurrence_step
    applied to the sweep's five preceding values.  The recurrence only holds
    from m = 7, so smaller m_lo is a domain error; m_hi is capped by
    sweep.MAX_SWEEP_INDEX.
    """
    if m_lo < 7:
        raise ValueError(f"the recurrence needs m >= 7, got m_lo={m_lo}")
    if m_hi < m_lo:
        raise ValueError(f"empty range [{m_lo}, {m_hi}]")
    values = fib_pair_counts(m_hi)  # values[i] is V(F_{i+2})
    return [
        LemmaRow(m, values[m - 2], recurrence_step(values[m - 7 : m - 2], m))
        for m in range(m_lo, m_hi + 1)
    ]
