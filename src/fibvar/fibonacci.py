"""The Fibonacci list and Zeckendorf decomposition.

fib_list is the one builder of Fibonacci numbers in fibvar, and its list is
indexed by the Fibonacci index: entry k is F_k, with F_0 = 0 and F_1 = F_2 =
1.  The distinct Fibonacci *values* {1, 2, 3, 5, 8, ...} are its entries from
F_2 on.  All arithmetic is on Python ints, so indices and values may grow
without bound.
"""

from dataclasses import dataclass


def fib_list(k_max: int) -> list[int]:
    """F_0, F_1, ..., F_{k_max}: entry k is F_k.  Raises ValueError for k_max < 1."""
    if k_max < 1:
        raise ValueError(f"the Fibonacci list needs k_max >= 1, got {k_max}")
    fibs = [0, 1]
    while len(fibs) <= k_max:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


@dataclass(frozen=True)
class ZeckendorfRepr:
    """The unique sum of non-consecutive Fibonacci numbers for a positive integer.

    indices is strictly decreasing, every entry >= 2, and no two entries are
    consecutive integers; values[j] is F_{indices[j]}.
    """

    indices: tuple[int, ...]
    values: tuple[int, ...]


def zeckendorf(n: int) -> ZeckendorfRepr:
    """Greedy Zeckendorf decomposition of n >= 1."""
    if n < 1:
        raise ValueError(f"Zeckendorf representation needs n >= 1, got {n}")
    # F_k >= phi^(k-2) and 1.441 log2(phi) > 1, so F_k > n for k > 2 + 1.441 n.bit_length()
    fibs = fib_list(2 + n.bit_length() * 1441 // 1000)
    indices = []
    rest = n
    for k in range(len(fibs) - 1, 1, -1):
        if fibs[k] <= rest:
            rest -= fibs[k]
            indices.append(k)
    if rest != 0:
        raise RuntimeError(f"greedy decomposition of {n} left remainder {rest}")
    return ZeckendorfRepr(indices=tuple(indices), values=tuple(fibs[k] for k in indices))
