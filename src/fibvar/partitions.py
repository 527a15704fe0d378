"""Counting partitions into distinct Fibonacci values over contiguous ranges.

R(n) is the number of ways to write n as a sum of strictly increasing
Fibonacci values (OEIS A000119), with R(0) = 1 for the empty sum and
R(n) = 0 for n < 0.  Tables are built block by block from Robbins' identity
(Fibonacci Quarterly, 1996): for F_k <= n < F_{k+1},

    R(n) = R(n - F_k) + R(F_{k+1} - 2 - n),

since a partition of n either uses F_k, and the rest is a partition of
n - F_k, or lies inside {F_2..F_{k-1}}, whose values sum to F_{k+1} - 2,
and its complement there is a partition of F_{k+1} - 2 - n.  Both arguments
lie below F_{k-1}, so the largest R below F_{k+1} is at most twice the
largest below F_{k-1}: R <= 2**floor((k-2)/2) below F_k, and R < 2**19 below
MAX_TABLE_ENTRIES = 10**8 < F_40.  int32 is thus exact for the counts, by
the identity alone, and int64 for their moments: R(n)**2 <= n+1, so even
V(H) = sum_{n<=H} R(n)**2 <= (H+1)(H+2)/2 stays far below 2**63.

_table_entries refuses any table of more than MAX_TABLE_ENTRIES entries
before anything is allocated, and _fill_r writes every entry of any 1-D
int32 or int64 view, so no table is zeroed first; _r_array and
moments.moment_table share both.  r, check_sqrt_bound and every CSV command
(through analysis.moment_rows) hold R in int32, 4 bytes per entry; the last
two widen it to int64 one chunk at a time.  r_table (int64, 8 bytes per
entry) and moments.moment_table (16) are the whole-array API and the tests'
reference.

check_carlitz needs R only at the checkpoints F_m, and takes it from
sweep.fib_partition_counts, which holds a few pair states per Fibonacci
value instead of a table, so it reaches m = sweep.MAX_SWEEP_INDEX.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError
from .fibonacci import fib_list
from .sweep import fib_partition_counts

MAX_TABLE_ENTRIES = 10**8  # int32 R (r, every CSV) 0.4 GB; r_table 0.8 GB, moment_table 1.6 GB


@dataclass(frozen=True)
class CountTable:
    """R(n) for 0 <= n <= h_max."""

    h_max: int
    r: np.ndarray


def _table_entries(h_max: int) -> int:
    """h_max + 1, the entries of a table over [0, h_max], refused past the budget."""
    if h_max < 0:
        raise ValueError(f"h_max must be >= 0, got {h_max}")
    if h_max + 1 > MAX_TABLE_ENTRIES:
        raise BudgetError(
            f"table of {h_max + 1} entries exceeds the budget of {MAX_TABLE_ENTRIES}"
        )
    return h_max + 1


def _fill_r(r: np.ndarray) -> None:
    """Write R(0..len(r)-1) into the 1-D integer view r, one block [F_k, F_{k+1}) at a time.

    Every operand of a block's vector add lies below F_k, so the add writes
    straight into r: about log_phi(len(r)) numpy calls and no temporary array.
    Every entry is written, so r need not be zeroed.
    """
    h_max = len(r) - 1
    r[0] = 1
    prev, f = 1, 1  # F_{k-1}, F_k from k = 2
    while f <= h_max:
        # n = f + i pairs R(i) with R(F_{k-1} - 2 - i); the block's last entry,
        # n = F_{k+1} - 1, has R(-1) = 0 as its second term and is set below
        w = min(prev - 1, h_max - f + 1)
        np.add(r[:w], r[prev - 1 - w : prev - 1][::-1], out=r[f : f + w])
        if f + prev - 1 <= h_max:
            r[f + prev - 1] = r[prev - 1]
        prev, f = f, f + prev


def _r_array(h_max: int, dtype) -> np.ndarray:
    """R(0..h_max) in a new array of dtype, left unzeroed for _fill_r to write."""
    r = np.empty(_table_entries(h_max), dtype=dtype)
    _fill_r(r)
    return r


def r_table(h_max: int) -> CountTable:
    """Tabulate R(0..h_max) into one contiguous int64 array."""
    return CountTable(h_max=h_max, r=_r_array(h_max, np.int64))


def r(n: int) -> int:
    """R(n) for a single argument; negative n gives 0."""
    if n < 0:
        return 0
    return int(_r_array(n, np.int32)[n])


class CarlitzRow(NamedTuple):
    m: int
    r_fib: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.r_fib == self.expected


def check_carlitz(m_max: int) -> list[CarlitzRow]:
    """Check Carlitz's identity R(F_m) = floor(m/2) for 2 <= m <= m_max.

    R(F_m) comes from the pair sweep of sweep.fib_partition_counts, its second
    subset forced empty, not from a table, so m_max is capped by MAX_SWEEP_INDEX.
    """
    counts = fib_partition_counts(m_max)
    return [CarlitzRow(m, counts[m - 2], m // 2) for m in range(2, m_max + 1)]


class SqrtBoundResult(NamedTuple):
    passed: bool
    equality_positions: list[int]


SQRT_CHUNK = 1 << 12  # entries per screened chunk: 32 KB once widened to int64, L1-sized


def check_sqrt_bound(h_max: int) -> SqrtBoundResult:
    """Check R(n) <= sqrt(n+1) on [0, h_max] and locate the equality cases.

    Passes iff the bound holds everywhere and equality happens exactly at
    n = F_m**2 - 1 for Fibonacci numbers F_m, m >= 2.  A chunk from lo on whose
    largest count squares below lo + 1 has R(n)**2 < n + 1 throughout; only the
    other chunks get the slack n + 1 - R(n)**2.  R is held in int32 and squared
    in int64, where even a count of 2**31 - 1 cannot overflow.  The table is
    left as built: the peak is its 4 bytes per entry and one chunk.
    """
    r = _r_array(h_max, np.int32)
    starts = np.arange(0, h_max + 1, SQRT_CHUNK)
    top_squared = np.square(np.maximum.reduceat(r, starts), dtype=np.int64)
    bound_ok, positions = True, []
    for lo in starts[top_squared >= starts + 1].tolist():
        squares = np.square(r[lo : lo + SQRT_CHUNK], dtype=np.int64)
        slack = np.arange(lo + 1, lo + 1 + len(squares)) - squares
        bound_ok = bound_ok and bool(slack.min() >= 0)
        positions += (np.flatnonzero(slack == 0) + lo).tolist()
    # F_k^2 >= phi^(2k-4) >= 2^(k-2), so F_k^2 <= h_max + 1 < 2^b needs k <= b + 1;
    # the values start at F_2, as F_0 = 0 would add -1 and F_1 = F_2 a duplicate
    fibs = fib_list((h_max + 1).bit_length() + 1)
    expected = [f * f - 1 for f in fibs[2:] if f * f - 1 <= h_max]
    return SqrtBoundResult(bound_ok and positions == expected, positions)
