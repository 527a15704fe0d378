"""First and second moments of the partition counts, and the five-term recurrence.

A(H) = sum_{n<=H} R(n) and V(H) = sum_{n<=H} R(n)^2 over a range come from
moment_table, as prefix-sum arrays.  R(F_m) and V(F_m) at the Fibonacci
checkpoints come from fib_moment_series, which reads them off one R table up
to F_m and keeps no array.  Along the checkpoints the second moment
satisfies, for m >= 7,

    V(F_m) = 2 V(F_{m-1}) + 3 V(F_{m-2}) - 4 V(F_{m-3}) - 2 V(F_{m-4})
             + 2 V(F_{m-5}) + 1 - 2*floor(m/2),

which LAG_COEFFS and recurrence_step state once and verify_lemma checks as
an identity between two independently computed sides.  verify_lemma takes
V(F_m) from sweep.fib_pair_counts instead of the table, so it reaches m =
sweep.MAX_SWEEP_INDEX where the table stops at partitions.MAX_TABLE_INDEX.
FibMomentSeries.w evaluates the auxiliary count

    w_m = V(F_{m-3}) - R(F_{m-3}) - R(F_{m-5}) - V(F_{m-5}),

which fibvar.casework also counts by a forced pair sweep.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fibonacci import distinct_fib_upto, fib
from .partitions import check_table_index, r_table
from .sweep import fib_pair_counts


@dataclass(frozen=True)
class MomentTable:
    """Prefix sums a[n] = A(n), v[n] = V(n) for 0 <= n <= h_max."""

    h_max: int
    a: np.ndarray
    v: np.ndarray

    def v_at(self, n: int) -> int:
        if not 0 <= n <= self.h_max:
            raise ValueError(f"n={n} outside table range [0, {self.h_max}]")
        return int(self.v[n])


def moment_table(h_max: int) -> MomentTable:
    """Build A and V over [0, h_max]; the R table becomes V, 16 bytes per entry."""
    r = r_table(h_max).r
    a = np.cumsum(r)
    np.multiply(r, r, out=r)
    np.cumsum(r, out=r)
    return MomentTable(h_max=h_max, a=a, v=r)


def v_at_fib(m: int) -> int:
    """V(F_m) for m >= 2."""
    return fib_moment_series(m).v(m)


@dataclass(frozen=True)
class FibMomentSeries:
    """R and V at F_m for 2 <= m <= m_max; counts[m] is R(F_m), values[m] is V(F_m).

    Entries 0 and 1 of both tuples are unused.
    """

    m_max: int
    counts: tuple[int, ...]
    values: tuple[int, ...]

    def _index(self, m: int) -> int:
        if not 2 <= m <= self.m_max:
            raise ValueError(f"m={m} outside series range [2, {self.m_max}]")
        return m

    def r(self, m: int) -> int:
        return self.counts[self._index(m)]

    def v(self, m: int) -> int:
        return self.values[self._index(m)]

    def w(self, m: int) -> int:
        """The auxiliary count w_m, for 7 <= m <= m_max + 3."""
        if m < 7:
            raise ValueError(f"w_m needs m >= 7, got {m}")
        value = self.v(m - 3) - self.r(m - 3) - self.r(m - 5) - self.v(m - 5)
        if value < 0:
            raise RuntimeError(f"w_{m} came out as {value} < 0: the series values disagree")
        return value


def fib_moment_series(m_max: int) -> FibMomentSeries:
    """R and V at every Fibonacci checkpoint up to F_m_max from one R table.

    R(F_m) is read off the table before it is squared in place (R(n)**2 <=
    n+1 fits int64) and summed block by block between checkpoints, so the
    peak is the table's own 8 bytes per entry and no V array is built.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    check_table_index(m_max)
    table = r_table(fib(m_max))
    checkpoints = distinct_fib_upto(table.h_max)  # F_2 .. F_m_max
    squares = table.r
    counts = squares[checkpoints].tolist()
    np.multiply(squares, squares, out=squares)
    # block i sums squares[F_{i+1}+1 .. F_{i+2}], with block 0 = [0, F_2]
    starts = [0] + [f + 1 for f in checkpoints[:-1]]
    values = np.cumsum(np.add.reduceat(squares, starts)).tolist()
    return FibMomentSeries(m_max=m_max, counts=(0, 0, *counts), values=(0, 0, *values))


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
