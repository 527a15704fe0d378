from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibvar.fibonacci import distinct_fib_upto, fib, zeckendorf


def test_fib_base_values():
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55
    assert fib(20) == 6765


@pytest.mark.parametrize("m", [0, -1, -10])
def test_fib_rejects_bad_index(m):
    with pytest.raises(ValueError):
        fib(m)


def test_distinct_values_sum_identity():
    # sum of all distinct Fibonacci values in [1, F_{m-2}] equals F_m - 2
    for m in range(4, 41):
        assert sum(distinct_fib_upto(fib(m - 2))) == fib(m) - 2


def test_distinct_fib_upto_examples():
    assert distinct_fib_upto(0) == []
    assert distinct_fib_upto(1) == [1]
    assert distinct_fib_upto(10) == [1, 2, 3, 5, 8]
    assert distinct_fib_upto(13) == [1, 2, 3, 5, 8, 13]


def test_zeckendorf_examples():
    assert zeckendorf(1).indices == (2,)
    assert zeckendorf(55).indices == (10,)
    assert zeckendorf(100).indices == (11, 6, 4)


@pytest.mark.parametrize("n", [0, -1, -100])
def test_zeckendorf_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        zeckendorf(n)


@given(st.integers(min_value=1, max_value=10**12))
def test_zeckendorf_roundtrip_and_shape(n):
    z = zeckendorf(n)
    assert sum(fib(i) for i in z.indices) == n
    assert all(i >= 2 for i in z.indices)
    assert all(a > b + 1 for a, b in zip(z.indices, z.indices[1:]))


def test_zeckendorf_roundtrip_exhaustive_to_1e5():
    values = {m: fib(m) for m in range(2, 31)}
    for n in range(1, 10**5 + 1):
        z = zeckendorf(n)
        assert sum(values[i] for i in z.indices) == n
        assert all(a > b + 1 for a, b in zip(z.indices, z.indices[1:]))


def test_zeckendorf_unique_for_small_n():
    # exhaustive: each n <= 1000 has exactly one non-consecutive index subset
    indices = list(range(2, 17))  # F_16 = 987
    counts = {}
    for size in range(1, len(indices) + 1):
        for combo in combinations(indices, size):
            if any(b == a + 1 for a, b in zip(combo, combo[1:])):
                continue
            total = sum(fib(i) for i in combo)
            if total <= 1000:
                counts[total] = counts.get(total, 0) + 1
    for n in range(1, 1001):
        assert counts.get(n, 0) == 1, n
        assert sum(fib(i) for i in zeckendorf(n).indices) == n
