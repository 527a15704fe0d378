
import numpy as np
import pytest

from fibvar.closed_form import closed_form_v
from fibvar.errors import BudgetError
from fibvar.fibonacci import fib_list
from fibvar.moments import moment_table, v_at_fib, verify_lemma
from fibvar.partitions import r_table
from fibvar.sweep import MAX_SWEEP_INDEX
from table_reference import FibMomentSeries, fib_moment_series

F = fib_list(30)
INITIAL = (2, 3, 7, 12, 26)  # V(F_2)..V(F_6)

# frozen from the exhaustive-enumeration oracle, cross-checked by the recurrence
V_AT_FIB = {
    7: 53, 8: 121, 9: 280, 10: 674, 11: 1641, 12: 4037, 13: 9972, 14: 24690,
    15: 61201, 16: 151777, 17: 376512, 18: 934098, 19: 2317585, 20: 5750245,
}


def test_moment_table_base():
    mt = moment_table(0)
    assert int(mt.a[0]) == 1 and mt.v_at(0) == 1


def test_moment_table_small_values():
    mt = moment_table(8)
    assert int(mt.a[3]) == 5
    assert mt.v_at(3) == 7
    assert mt.v_at(8) == 26


def test_moment_table_peak_memory_is_a_and_v(peak_bytes):
    assert peak_bytes(lambda: moment_table(10**6)) <= 2.05 * 8 * (10**6 + 1)


def test_v_at_fib_builds_no_table(peak_bytes):
    # one pair sweep of a few states per Fibonacci value; the R table up to F_30 is 6.7 MB
    assert peak_bytes(lambda: v_at_fib(30)) < 2**16


@pytest.mark.parametrize(
    "h", [0, 1, 2, 3, 1000, 123457, *(F[k] + d for k in (20, 25) for d in (-2, -1, 0))]
)
def test_moment_table_is_the_prefix_sums_of_r(h):
    # every way the strided fill can end: inside a block, on its last entry, past it
    r = r_table(h).r
    mt = moment_table(h)
    assert np.array_equal(mt.a, np.cumsum(r)) and np.array_equal(mt.v, np.cumsum(r**2))


def test_fib_moment_series_peak_memory_is_r_alone(peak_bytes):
    assert peak_bytes(lambda: fib_moment_series(30)) <= 1.05 * 8 * (F[30] + 1)


def test_fib_moment_series_matches_moment_table():
    series, table = fib_moment_series(30), moment_table(F[30])
    for m in range(2, 31):
        assert series.v(m) == table.v_at(F[m]), m


def test_fib_moment_series_counts_are_carlitz():
    series, table = fib_moment_series(30), r_table(F[30])
    for m in range(2, 31):
        assert series.r(m) == table.r[F[m]] == m // 2, m


def test_moment_arrays_strictly_increase():
    mt = moment_table(3000)
    assert np.all(np.diff(mt.a) > 0)
    assert np.all(np.diff(mt.v) > 0)


def test_cauchy_schwarz_exact_form():
    mt = moment_table(10**5)
    n_plus_1 = np.arange(1, 10**5 + 2, dtype=np.int64)
    assert np.all(n_plus_1 * mt.v >= mt.a * mt.a)


def test_v_at_fib_initial_data():
    assert tuple(v_at_fib(m) for m in range(2, 7)) == INITIAL


def test_v_at_fib_oracle_values(series_f28):
    for m, want in V_AT_FIB.items():
        assert series_f28.v(m) == want
        assert v_at_fib(m) == want


def test_v_at_fib_rejects_small_m():
    with pytest.raises(ValueError):
        v_at_fib(1)


@pytest.mark.parametrize("m", [40, 100, 1000])
def test_v_at_fib_matches_the_closed_form_past_the_table(m, solution):
    assert v_at_fib(m) == closed_form_v(m, solution)


def test_v_at_fib_is_refused_past_the_sweep_cap():
    with pytest.raises(BudgetError, match=f"F_{MAX_SWEEP_INDEX + 1}"):
        v_at_fib(MAX_SWEEP_INDEX + 1)


def test_fib_moment_series_shape(series_f28):
    assert series_f28.values[2:7] == INITIAL
    vals = series_f28.values[2:]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        series_f28.v(1)
    with pytest.raises(ValueError):
        series_f28.v(29)


def test_verify_lemma_holds_through_28():
    rows = verify_lemma(7, 28)
    assert [row.m for row in rows] == list(range(7, 29))
    assert all(row.equal for row in rows)
    first = rows[0]
    assert (first.lhs, first.rhs) == (53, 53)


def test_verify_lemma_rejects_small_m():
    with pytest.raises(ValueError):
        verify_lemma(6, 10)
    with pytest.raises(ValueError):
        verify_lemma(8, 7)


def test_w_closed_form_values():
    assert fib_moment_series(4).w(7) == 2
    assert fib_moment_series(5).w(8) == 6
    assert fib_moment_series(6).w(9) == 14  # V(F_6) - R(F_6) - R(F_4) - V(F_4) = 26 - 3 - 2 - 7


def test_w_closed_form_rejects_small_m():
    with pytest.raises(ValueError):
        fib_moment_series(3).w(6)


def test_w_closed_form_rejects_inconsistent_tables():
    # V(F_4) = 0 lies below R(F_4) + R(F_2) + V(F_2) = 5, so w_7 would be -5
    series = FibMomentSeries(m_max=4, counts=(0, 0, 1, 1, 2), values=(0, 0, 2, 3, 0))
    with pytest.raises(RuntimeError, match="w_7"):
        series.w(7)
