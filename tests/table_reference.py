"""The R table's route to R and V at the Fibonacci checkpoints, kept as a test reference.

fib_moment_series reads R(F_m) and V(F_m) for every m up to m_max off one R
table up to F_m_max (partitions.r_table), so it is independent of the sweep
and of the five-term recurrence that the package uses for these values.  The
tests compare both against it up to F_39, the last checkpoint whose table
fits MAX_TABLE_ENTRIES; check_table_index refuses one past that from m alone,
before any table is built.  Its peak is the table's own 8 bytes per entry:
R(F_m) is read off the table, which is then squared in place and summed
block by block between checkpoints.
"""

from dataclasses import dataclass

import numpy as np

from fibvar.errors import BudgetError
from fibvar.fibonacci import fib_list
from fibvar.partitions import MAX_TABLE_ENTRIES, r_table

F = fib_list(60)

# the largest m whose table R(0..F_m) fits: F_39 < 10**8 <= F_40
MAX_TABLE_INDEX = max(m for m, f in enumerate(F) if f < MAX_TABLE_ENTRIES)


def check_table_index(m: int) -> None:
    """Refuse a table up to F_m past the cap from m alone, before it is built."""
    if m > MAX_TABLE_INDEX:
        raise BudgetError(
            f"a table up to F_{m} exceeds the budget of {MAX_TABLE_ENTRIES} entries "
            f"(m <= {MAX_TABLE_INDEX})"
        )


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
    table = r_table(F[m_max])
    checkpoints = F[2 : m_max + 1]
    squares = table.r
    counts = squares[checkpoints].tolist()
    np.multiply(squares, squares, out=squares)
    # block i sums squares[F_{i+1}+1 .. F_{i+2}], with block 0 = [0, F_2]
    starts = [0] + [f + 1 for f in checkpoints[:-1]]
    values = np.cumsum(np.add.reduceat(squares, starts)).tolist()
    return FibMomentSeries(m_max=m_max, counts=(0, 0, *counts), values=(0, 0, *values))
