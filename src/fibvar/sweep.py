"""Counts of Fibonacci subset pairs from one sweep over the values.

A count here is a number of ways to place the distinct Fibonacci values F_k,
F_{k-1}, ..., F_2 one at a time, from the top, so that the choices add up as
required.  What the smaller values still have to do is a small state, and two
placements that leave the same state have the same completions; merging them
leaves a handful of states per value (at most 8 in the steady state), where a
table of R up to F_m holds F_m entries.  This is the sweep over the Fibonacci
values of Berstel (RAIRO ITA, 2001) and Edson and Zamboni (2004).

Level k holds the states left with F_k, ..., F_2 still to place, S =
F_{k+2} - 2 their sum.  A start is a state entered at any level, so one sweep
from the highest start down builds each level once for every start.  A
forward pass links every state to its successors one level down; a backward
pass sums completion counts from F_2 up and reads the count of each start.

- pair_completions: ordered pairs (X, Y) of subsets with sum(X) = sum(Y).  A
  state is (d, h): the rest of X must exceed the rest of Y by d, and the rest
  of X may sum to at most h.  Each value goes in neither set, in X, in Y or
  in both.  Swapping X and Y turns (d, h) into (-d, h - d), so a state with
  d < 0 is stored as that mirror image, and every state, starts included,
  has d >= 0.  Then the rest of X lies in [d, S], so h is clamped to
  min(h, S) and the state dropped when d > S or h < d.
- fib_partition_counts: R(F_m), the pairs with sum(X) - sum(Y) = F_m and
  sum(X) <= F_m, so Y is empty; the start for m is (F_m, F_m) at level m.
- fib_pair_counts: V(F_m) = sum_{n<=F_m} R(n)^2, the pairs with sum(X) =
  sum(Y) <= F_m; the start for m is (0, F_m) at level m.  fibvar.casework
  enters pair states below forced top values instead.

Neither count uses the table of partitions.r_table nor the five-term
recurrence, so each is an independent route to the values they give.  All
arithmetic is on Python ints, and nothing is kept between calls.
MAX_SWEEP_INDEX caps the top level.  sweep_fibs checks the top index m
against it, from m alone, before it asks fibonacci.fib_list for the list:
at the cap V(F_m) has 3946 digits, below the 4300 that str(int) accepts by
default.
"""

from .errors import BudgetError
from .fibonacci import fib_list

MAX_SWEEP_INDEX = 10**4


def sweep_fibs(m_max: int) -> list[int]:
    """F_0, F_1, ..., F_{m_max+1}: the values and level sums of a sweep from level m_max."""
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    if m_max > MAX_SWEEP_INDEX:
        raise BudgetError(
            f"a sweep up to F_{m_max} exceeds the budget of m <= {MAX_SWEEP_INDEX}"
        )
    return fib_list(m_max + 1)


def _pair_moves(level, v, s, below):
    # Lists, per state of a level, the places in below of the states that
    # placing v leaves: (e, g) with e >= 0, kept when e <= s and g >= e, since
    # the rest of X lies in [e, s], and clamped to (e, min(g, s)).  The four
    # moves are written out: this loop is most of a sweep's time.
    place = below.setdefault
    out = []
    for d, h in level:  # d >= 0
        nxt = []
        if d <= s and h >= d:  # in neither set
            nxt.append(place((d, h if h < s else s), len(below)))
            g = h - v
            if g >= d:  # in both
                nxt.append(place((d, g if g < s else s), len(below)))
        e = d + v  # in Y
        if e <= s and h >= e:
            nxt.append(place((e, h if h < s else s), len(below)))
        # in X: d - v, or its mirror image when that is negative
        e, g = (d - v, h - v) if d >= v else (v - d, h - d)
        if e <= s and g >= e:
            nxt.append(place((e, g if g < s else s), len(below)))
        out.append(nxt)
    return out


def pair_completions(fibs: list[int], starts: list[tuple[int, tuple[int, int]]]) -> list[int]:
    """For each start (k, (d, h)) with d >= 0, in order: the pairs (X, Y) of
    subsets of {F_2, ..., F_k} with sum(X) - sum(Y) = d and sum(X) <= h.

    starts is not empty, and every k lies in [2, len(fibs) - 2]: fibs is
    sweep_fibs of the highest.  A count with d < 0 is the one of its mirror
    image (-d, h - d).  A start is neither pruned nor clamped as the moves
    are: it only enters its level.
    """
    if not starts:
        raise ValueError("pair_completions needs at least one start")
    top = len(fibs) - 2
    entering = [[] for _ in range(top + 1)]
    for i, (k, state) in enumerate(starts):
        if state[0] < 0:
            raise ValueError("a pair start needs d >= 0: swap X and Y")
        if not 2 <= k <= top:
            raise ValueError(f"a pair start's level k={k} lies outside [2, {top}]")
        entering[k].append((i, state))
    # forward: a level maps each of its states to its place, in order of first
    # entry; links[j][p] lists the successors of state p of level top - j by
    # their places one level down, and reads[j] the places of the level's starts
    links, reads = [], []
    level = {}
    for k in range(top, 1, -1):
        reads.append([(i, level.setdefault(state, len(level))) for i, state in entering[k]])
        below = {}
        # F_k, and F_{k-1} + ... + F_2
        links.append(_pair_moves(level, fibs[k], fibs[k + 1] - 2, below))
        level = below
    # backward: level 1 has placed every value, so moves left only complete states there
    counts = [1] * len(level)
    out = [0] * len(starts)
    for succ, read in zip(reversed(links), reversed(reads)):
        counts = [sum(map(counts.__getitem__, nxt)) for nxt in succ]
        for i, place in read:
            out[i] = counts[place]
    return out


def fib_partition_counts(m_max: int) -> list[int]:
    """R(F_m) for 2 <= m <= m_max: entry i is R(F_{i+2})."""
    fibs = sweep_fibs(m_max)
    return pair_completions(fibs, [(k, (fibs[k], fibs[k])) for k in range(2, m_max + 1)])


def fib_pair_counts(m_max: int) -> list[int]:
    """V(F_m) for 2 <= m <= m_max: entry i is V(F_{i+2})."""
    fibs = sweep_fibs(m_max)
    return pair_completions(fibs, [(k, (0, fibs[k])) for k in range(2, m_max + 1)])
