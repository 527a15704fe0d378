"""Fibonacci indexing, distinct-value enumeration, and Zeckendorf decomposition.

Everything here works with the convention F_1 = F_2 = 1, so the distinct
Fibonacci *values* are {1, 2, 3, 5, 8, ...} with 1 appearing once.  All
arithmetic is on Python ints, so indices and values may grow without bound.
"""

from dataclasses import dataclass


def fib(m: int) -> int:
    """Return F_m with F_1 = F_2 = 1.  Raises ValueError for m < 1."""
    if m < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {m}")
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return a


def distinct_fib_upto(h: int) -> list[int]:
    """All distinct Fibonacci values <= h, increasing; 1 listed once."""
    if h < 1:
        return []
    values = [1, 2]
    while values[-1] + values[-2] <= h:
        values.append(values[-1] + values[-2])
    return [v for v in values if v <= h]


@dataclass(frozen=True)
class ZeckendorfRepr:
    """The unique sum of non-consecutive Fibonacci numbers for a positive integer.

    indices is strictly decreasing, every entry >= 2, and no two entries are
    consecutive integers.
    """

    indices: tuple[int, ...]

    @property
    def value(self) -> int:
        return sum(fib(i) for i in self.indices)


def zeckendorf(n: int) -> ZeckendorfRepr:
    """Greedy Zeckendorf decomposition of n >= 1."""
    if n < 1:
        raise ValueError(f"Zeckendorf representation needs n >= 1, got {n}")
    values = distinct_fib_upto(n)  # values[0] == F_2
    indices = []
    rest = n
    for pos in range(len(values) - 1, -1, -1):
        if values[pos] <= rest:
            rest -= values[pos]
            indices.append(pos + 2)
    if rest != 0:
        raise RuntimeError(f"greedy decomposition of {n} left remainder {rest}")
    return ZeckendorfRepr(indices=tuple(indices))
