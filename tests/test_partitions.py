from collections import Counter
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibvar.errors import BudgetError
from fibvar.fibonacci import fib_list
from fibvar.partitions import (
    MAX_TABLE_ENTRIES,
    SQRT_CHUNK,
    CarlitzRow,
    _fill_r,
    _r_array,
    check_carlitz,
    check_sqrt_bound,
    r,
    r_table,
)
from fibvar.sweep import MAX_SWEEP_INDEX
from table_reference import MAX_TABLE_INDEX, fib_moment_series

F = fib_list(40)
FIB_K_MAX = 33  # F_33 = 3524578


def values_upto(h):
    """The distinct Fibonacci values <= h, F_2 on, increasing."""
    return [f for f in F[2:] if f <= h]


def brute_force_counts(h_max):
    """Independent oracle: enumerate every subset of distinct values <= h_max."""
    sums = [0]
    for v in values_upto(h_max):
        sums += [s + v for s in sums]
    cnt = Counter(s for s in sums if s <= h_max)
    return [cnt[n] for n in range(h_max + 1)]


def subset_dp_counts(h_max):
    """Reference oracle: the distinct-parts subset-count DP, one pass per value.

    r[v:] += r[:-v] reads the values from before the pass (numpy copies the
    overlapping operand), which is the downward sweep of the 0/1 knapsack.
    """
    r = np.zeros(h_max + 1, dtype=np.int64)
    r[0] = 1
    for v in values_upto(h_max):
        r[v:] += r[:-v]
    return r


@pytest.fixture(scope="module")
def dp_past_f33():
    return subset_dp_counts(F[FIB_K_MAX] + 1)


def test_small_table_matches_enumeration():
    assert list(r_table(3).r) == [1, 1, 1, 2]


def test_oracle_equivalence_to_2000(counts_2000):
    expected = brute_force_counts(2000)
    assert counts_2000.r.tolist() == expected


def test_block_table_matches_subset_dp_to_3000():
    for h in range(3001):
        assert np.array_equal(r_table(h).r, subset_dp_counts(h)), h


def test_block_table_matches_subset_dp_around_fibonacci_numbers(dp_past_f33):
    for k in range(1, FIB_K_MAX + 1):
        for h in range(max(F[k] - 2, 0), F[k] + 2):
            assert np.array_equal(r_table(h).r, dp_past_f33[: h + 1]), (k, h)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 * 10**6))
def test_block_table_matches_subset_dp_at_random_sizes(dp_past_f33, h):
    # a DP table over [0, H] is the prefix of any longer one
    assert np.array_equal(r_table(h).r, dp_past_f33[: h + 1])


def _filled_views(n):
    """_fill_r's output over n entries in each kind of buffer it is given, pre-set to -1."""
    views = []
    for dtype in (np.int64, np.int32):
        buf = np.full(n, -1, dtype=dtype)
        _fill_r(buf)
        views.append(buf)
    pair = np.full((n, 2), -1, dtype=np.int64)  # the column moments.moment_table fills
    _fill_r(pair[:, 0])
    assert np.all(pair[:, 1] == -1)  # the other column is not touched
    return views + [pair[:, 0]]


def _fill_sizes():
    rng = np.random.default_rng(29)
    around = {h for k in range(2, 28) for h in range(F[k] - 2, F[k] + 2) if h >= 0}
    return sorted(around | {int(h) for h in rng.integers(0, 2 * 10**6, 4)})


@pytest.mark.parametrize("h", _fill_sizes())
def test_fill_r_writes_every_entry(dp_past_f33, h):
    # np.empty can return a freed table that already holds R, so fill over -1
    for view in _filled_views(h + 1):
        assert np.array_equal(view, dp_past_f33[: h + 1]), view.dtype


def test_r_table_peak_memory_is_the_table(peak_bytes):
    assert peak_bytes(lambda: r_table(10**6)) <= 1.05 * 8 * (10**6 + 1)


def test_int32_counts_are_exact_up_to_the_table_cap(dp_past_f33):
    # R <= 2**floor((k-2)/2) below F_k, from Robbins' identity; r and check_sqrt_bound
    # hold R in int32, so raising MAX_TABLE_ENTRIES past that must fail here
    for k in range(2, FIB_K_MAX + 1):
        assert dp_past_f33[: F[k]].max() <= 2 ** ((k - 2) // 2), k
    k = next(k for k, f in enumerate(F) if f > MAX_TABLE_ENTRIES)
    assert 2 ** ((k - 2) // 2) <= np.iinfo(np.int32).max


def test_r_peak_memory_is_an_int32_table(peak_bytes):
    n = 10**6
    assert peak_bytes(lambda: r(n)) <= 1.05 * 4 * (n + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3 * 10**5))
def test_r_matches_the_table_entry(n):
    assert r(n) == r_table(n).r[n]


def test_single_point_queries():
    assert r(-5) == 0
    assert r(0) == 1
    assert r(168) == 13  # = F_7, attained at n = F_7^2 - 1
    assert r(12) == 1  # F_7 - 1
    assert r(55) == 5


def test_monotone_table_consistency():
    big = r_table(500)
    small = r_table(200)
    assert big.r[:201].tolist() == small.r.tolist()


def test_count_table_invariants(counts_2000):
    rvals = counts_2000.r
    assert rvals[0] == 1
    assert np.all(rvals >= 1)
    assert np.all(rvals * rvals <= np.arange(1, len(rvals) + 1))


def test_count_rejects_out_of_range(counts_2000):
    assert r(-3) == 0
    with pytest.raises(IndexError):
        counts_2000.r[2001]


def test_r_fib_minus_one_is_one():
    table = r_table(F[30])
    for m in range(2, 31):
        assert table.r[F[m] - 1] == 1


def test_r_at_fib_squared_minus_one():
    # R(F_m^2 - 1) = F_m, the extremal case of the sqrt bound
    table = r_table(F[18] ** 2 - 1)
    for m in range(2, 19):
        assert table.r[F[m] ** 2 - 1] == F[m]
        assert r(F[m] ** 2 - 1) == F[m]


def test_check_carlitz_rows():
    rows = check_carlitz(28)
    assert all(row.ok for row in rows)
    by_m = {row.m: row for row in rows}
    assert (by_m[2].r_fib, by_m[2].expected) == (1, 1)
    assert (by_m[4].r_fib, by_m[4].expected) == (2, 2)
    assert (by_m[10].r_fib, by_m[10].expected) == (5, 5)


def test_carlitz_verdict_follows_its_sides():
    assert CarlitzRow(4, 2, 2).ok
    assert not CarlitzRow(5, 3, 2).ok


def test_check_carlitz_rejects_small_m():
    with pytest.raises(ValueError):
        check_carlitz(1)


def test_check_sqrt_bound_examples():
    assert check_sqrt_bound(2) == (True, [0])
    assert check_sqrt_bound(10) == (True, [0, 3, 8])
    passed, positions = check_sqrt_bound(170)
    assert passed
    assert positions == [0, 3, 8, 24, 63, 168]


def sqrt_bound_reference(h_max):
    """check_sqrt_bound on full-length arrays of n + 1 and R(n)**2."""
    table = r_table(h_max)
    n_plus_1 = np.arange(1, h_max + 2, dtype=np.int64)
    squares = table.r * table.r
    bound_ok = bool(np.all(squares <= n_plus_1))
    equality = np.flatnonzero(squares == n_plus_1)
    expected = [f * f - 1 for f in F[2:] if f * f - 1 <= h_max]
    positions = [int(n) for n in equality]
    return bound_ok and positions == expected, positions


# 2**16 is a chunk edge for every power-of-two chunk up to it; 4096 is checked below
@pytest.mark.parametrize("h_max", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 16])
def test_check_sqrt_bound_matches_full_arrays_at_chunk_edges(h_max):
    assert check_sqrt_bound(h_max) == sqrt_bound_reference(h_max)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3 * 10**5))
def test_check_sqrt_bound_matches_full_arrays(h_max):
    assert check_sqrt_bound(h_max) == sqrt_bound_reference(h_max)


_SCREEN_EDGES = sorted(
    {0, 1, 2, 3, SQRT_CHUNK - 1, SQRT_CHUNK, SQRT_CHUNK + 1, 10**6}
    | {F[m] ** 2 - 1 + d for m in range(3, 13) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("h_max", _SCREEN_EDGES)
def test_screened_check_sqrt_bound_matches_full_arrays(h_max):
    # chunk edges, each equality position F_m**2 - 1 at and next to the end, and 10**6
    assert check_sqrt_bound(h_max) == sqrt_bound_reference(h_max)


def test_check_sqrt_bound_fails_on_a_violation_in_a_chunk_the_screen_clears(monkeypatch):
    h = 8 * SQRT_CHUNK - 1  # eight whole chunks
    table = r_table(h).r
    starts = np.arange(0, h + 1, SQRT_CHUNK)
    tops = np.maximum.reduceat(table, starts)
    cleared = [int(lo) for lo, top in zip(starts, tops) if top * top < lo + 1]
    assert cleared  # the case under test exists
    n = cleared[-1] + SQRT_CHUNK // 2
    value = isqrt(n + 1) + 1  # the smallest R(n) past the bound
    real = _r_array

    def corrupted(h_max, dtype):
        table = real(h_max, dtype)
        table[n] = value
        return table

    monkeypatch.setattr("fibvar.partitions._r_array", corrupted)
    assert check_sqrt_bound(h) == (False, sqrt_bound_reference(h)[1])


def test_check_sqrt_bound_leaves_the_table_as_built(monkeypatch):
    built = []

    def recorded(h_max, dtype):
        built.append(_r_array(h_max, dtype))
        return built[-1]

    monkeypatch.setattr("fibvar.partitions._r_array", recorded)
    check_sqrt_bound(3 * SQRT_CHUNK)
    assert np.array_equal(built[0], r_table(3 * SQRT_CHUNK).r)


def test_check_sqrt_bound_peak_memory_is_the_table(peak_bytes):
    # the int32 table, a chunk's int64 squares, ramp and slack, and the last chunk's squares
    # and slack while the next is squared: about 4.14 MB, half an int64 table
    h = 10**6
    assert peak_bytes(lambda: check_sqrt_bound(h)) <= 1.05 * 4 * (h + 1) + 40 * SQRT_CHUNK


@pytest.mark.parametrize("n, value", [((1 << 16) + 5, 1000), (15, 4)])
def test_check_sqrt_bound_fails_on_a_wrong_table(monkeypatch, n, value):
    # a violation past the first chunk, or an equality at n = 15, which is no F_m**2 - 1
    real = _r_array

    def corrupted(h_max, dtype):
        table = real(h_max, dtype)
        table[n] = value
        return table

    monkeypatch.setattr("fibvar.partitions._r_array", corrupted)
    passed, positions = check_sqrt_bound(2 << 16)
    assert not passed
    assert (n in positions) == (value**2 == n + 1)


def test_budget_errors():
    with pytest.raises(BudgetError):
        r_table(10**8)
    assert MAX_TABLE_INDEX == 39 and F[39] < MAX_TABLE_ENTRIES <= F[40]
    with pytest.raises(BudgetError, match="F_40"):
        fib_moment_series(40)
    with pytest.raises(BudgetError, match=f"F_{MAX_SWEEP_INDEX + 1}"):
        check_carlitz(MAX_SWEEP_INDEX + 1)
    with pytest.raises(ValueError):
        r_table(-1)
