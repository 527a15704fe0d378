import tracemalloc

import pytest

from fibvar.closed_form import solve_closed_form
from fibvar.fibonacci import fib_list
from fibvar.moments import moment_table
from fibvar.partitions import r_table
from table_reference import MAX_TABLE_INDEX, fib_moment_series


def _peak_bytes(fn):
    """tracemalloc peak of fn(), in bytes above the level at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def peak_bytes():
    return _peak_bytes


@pytest.fixture(scope="session")
def counts_2000():
    return r_table(2000)


@pytest.fixture(scope="session")
def series_f28():
    """V(F_m) for m = 2..28 from one table build."""
    return fib_moment_series(28)


@pytest.fixture(scope="session")
def series_f39():
    """R(F_m) and V(F_m) for m = 2..39 from the R table up to F_39, the largest that fits."""
    return fib_moment_series(MAX_TABLE_INDEX)


@pytest.fixture(scope="session")
def moments_f16():
    return moment_table(fib_list(16)[16])


@pytest.fixture(scope="session")
def solution():
    return solve_closed_form()
