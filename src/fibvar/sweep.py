"""R(F_m) and V(F_m) at every Fibonacci checkpoint from one sweep over the values.

A count at F_m is a number of ways to place the distinct Fibonacci values
F_m, F_{m-1}, ..., F_2 one at a time, from the top, so that the choices add up
as required.  What the smaller values still have to do is a small state, and
two placements that leave the same state have the same completions; merging
them leaves a handful of states per value (at most 12 up to the cap), where
a table of R holds F_m entries.  This is the sweep over the Fibonacci values of
Berstel (RAIRO ITA, 2001) and Edson and Zamboni (2004).

Level k holds the states left with F_k, ..., F_2 still to place, S =
F_{k+2} - 2 their sum, and every start at or above k, so one sweep from
F_M down builds each level once for all m <= M.  A forward pass links every
state to its successors one level down; a backward pass sums completion
counts from F_2 up and reads the count of each start.

- fib_partition_counts: R(F_m), the subsets of values that sum to F_m.  A
  state is the target t still to reach; each value is left out or taken,
  and t must stay in [0, S].  The start for m is t = F_m.
- fib_pair_counts: V(F_m) = sum_{n<=F_m} R(n)^2, the ordered pairs (X, Y) of
  subsets with sum(X) = sum(Y) <= F_m.  A state is (d, h): the rest of X
  must exceed the rest of Y by d, and the rest of X may sum to at most h.
  Each value goes in neither set, in X, in Y or in both.  Since the rest of
  X lies in [max(d, 0), min(S, S + d)], h is clamped to min(h, S, S + d)
  and the state dropped when |d| > S or h < max(d, 0).  The start for m is
  (0, F_m).

Neither count uses the table of partitions.r_table nor the five-term
recurrence, so each is an independent route to the values they give.  All
arithmetic is on Python ints, and nothing is kept between calls.
MAX_SWEEP_INDEX caps m and is checked before F_m is formed: at the cap
V(F_m) has 3946 digits, below the 4300 that str(int) accepts by default.
"""

from .errors import BudgetError

MAX_SWEEP_INDEX = 10**4


def _sweep(m_max: int, start, moves) -> list[int]:
    """Completion counts of start(F_m) for 2 <= m <= m_max, in order of m.

    moves(state, v, s) lists the states that placing the value v can leave,
    with s the sum of the values below v.  It leaves out states that cannot
    be completed and clamps each state to a normal form, so that the levels
    stay small.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    if m_max > MAX_SWEEP_INDEX:
        raise BudgetError(
            f"a sweep up to F_{m_max} exceeds the budget of m <= {MAX_SWEEP_INDEX}"
        )
    fibs = [0, 1]  # F_0 .. F_{m_max+1}
    while len(fibs) < m_max + 2:
        fibs.append(fibs[-1] + fibs[-2])
    # forward: links[i][j] lists the successors of state j at level m_max - i by
    # their places in the level below; a level's start, when it has one, is its state 0
    links = []
    level = [start(fibs[m_max])]
    for k in range(m_max, 1, -1):
        v, s = fibs[k], fibs[k + 1] - 2  # F_k and F_{k-1} + ... + F_2
        index = {start(fibs[k - 1]): 0} if k > 2 else {}
        links.append(
            [[index.setdefault(nxt, len(index)) for nxt in moves(state, v, s)] for state in level]
        )
        level = list(index)
    # backward: level 1 has placed every value, so its one state, if any, is complete
    counts = [1] * len(level)
    out = []
    for succ in reversed(links):
        below = counts.__getitem__
        counts = [sum(map(below, nxt)) for nxt in succ]
        out.append(counts[0])
    return out


def _subset_moves(t, v, s):
    return [u for u in (t, t - v) if 0 <= u <= s]


def _pair_moves(state, v, s):
    d, h = state
    out = []
    for e, g in ((d, h), (d, h - v), (d - v, h - v), (d + v, h)):  # neither, both, X, Y
        # the rest of X lies in [max(e, 0), min(s, s + e)]
        if e < 0:
            if e >= -s and g >= 0:
                out.append((e, g if g < s + e else s + e))
        elif e <= s and g >= e:
            out.append((e, g if g < s else s))
    return out


def fib_partition_counts(m_max: int) -> list[int]:
    """R(F_m) for 2 <= m <= m_max: entry i is R(F_{i+2})."""
    return _sweep(m_max, lambda f: f, _subset_moves)


def fib_pair_counts(m_max: int) -> list[int]:
    """V(F_m) for 2 <= m <= m_max: entry i is V(F_{i+2})."""
    return _sweep(m_max, lambda f: (0, f), _pair_moves)
