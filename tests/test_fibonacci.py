from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibvar.fibonacci import fib_list, zeckendorf

F = fib_list(60)  # F_60 > 10**12


def test_fib_base_values():
    assert F[:8] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert F[10] == 55
    assert F[20] == 6765


def test_fib_list_index_convention():
    # entry k is F_k, from F_0 = 0: fib_list(k) has k + 1 entries and ends in F_k
    for k in range(1, 61):
        assert fib_list(k) == F[: k + 1]
    for k in range(2, 61):
        assert F[k] == F[k - 1] + F[k - 2]


@pytest.mark.parametrize("m", [0, -1, -10])
def test_fib_rejects_bad_index(m):
    # the list always holds the seeds F_0 and F_1, so k_max < 1 is refused
    with pytest.raises(ValueError):
        fib_list(m)


def test_distinct_values_sum_identity():
    # the distinct Fibonacci values F_2 + ... + F_k sum to F_{k+2} - 2
    for k in range(2, 59):
        assert sum(F[2 : k + 1]) == F[k + 2] - 2


def test_fib_list_distinct_values():
    # 1 is F_1 and F_2; the distinct values are the entries from F_2 on
    assert fib_list(1) == [0, 1]
    assert fib_list(2) == [0, 1, 1]
    assert fib_list(6)[2:] == [1, 2, 3, 5, 8]
    assert fib_list(7)[2:] == [1, 2, 3, 5, 8, 13]


def test_zeckendorf_examples():
    assert zeckendorf(1).indices == (2,)
    assert zeckendorf(55).indices == (10,)
    assert zeckendorf(100).indices == (11, 6, 4)
    assert zeckendorf(100).values == (89, 8, 3)


def test_zeckendorf_list_reaches_the_top_value():
    # zeckendorf bounds its list by n's bit length; n = F_k needs F_k itself in it
    fibs = fib_list(2000)
    for k in range(3, 2001):
        assert zeckendorf(fibs[k]).indices == (k,)
        assert sum(fibs[i] for i in zeckendorf(fibs[k] - 1).indices) == fibs[k] - 1


@pytest.mark.parametrize("n", [0, -1, -100])
def test_zeckendorf_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        zeckendorf(n)


@given(st.integers(min_value=1, max_value=10**12))
def test_zeckendorf_roundtrip_and_shape(n):
    z = zeckendorf(n)
    assert sum(F[i] for i in z.indices) == n
    assert z.values == tuple(F[i] for i in z.indices)
    assert all(i >= 2 for i in z.indices)
    assert all(a > b + 1 for a, b in zip(z.indices, z.indices[1:]))


def test_zeckendorf_roundtrip_exhaustive_to_1e5():
    for n in range(1, 10**5 + 1):
        z = zeckendorf(n)
        assert sum(F[i] for i in z.indices) == n
        assert all(a > b + 1 for a, b in zip(z.indices, z.indices[1:]))


def test_zeckendorf_unique_for_small_n():
    # exhaustive: each n <= 1000 has exactly one non-consecutive index subset
    indices = list(range(2, 17))  # F_16 = 987
    counts = {}
    for size in range(1, len(indices) + 1):
        for combo in combinations(indices, size):
            if any(b == a + 1 for a, b in zip(combo, combo[1:])):
                continue
            total = sum(F[i] for i in combo)
            if total <= 1000:
                counts[total] = counts.get(total, 0) + 1
    for n in range(1, 1001):
        assert counts.get(n, 0) == 1, n
        assert sum(F[i] for i in zeckendorf(n).indices) == n
