import time
from collections import Counter
from itertools import product

import pytest

from fibvar.closed_form import closed_form_v
from fibvar.errors import BudgetError
from fibvar.moments import verify_lemma
from fibvar.partitions import check_carlitz
from fibvar.sweep import (
    MAX_SWEEP_INDEX,
    fib_pair_counts,
    fib_partition_counts,
    pair_completions,
    sweep_fibs,
)
from table_reference import MAX_TABLE_INDEX


def test_sweep_matches_the_table_at_every_checkpoint_it_allows(series_f39):
    ms = range(2, MAX_TABLE_INDEX + 1)
    assert fib_pair_counts(MAX_TABLE_INDEX) == [series_f39.v(m) for m in ms]
    assert fib_partition_counts(MAX_TABLE_INDEX) == [series_f39.r(m) for m in ms]


def test_sweep_of_a_shorter_range_is_a_prefix():
    # every start enters at its own level, so m_max only adds levels above, and
    # levels above the highest start, where nothing enters, change no count
    for m_max in range(2, 12):
        assert fib_pair_counts(m_max) == fib_pair_counts(12)[: m_max - 1]
        assert fib_partition_counts(m_max) == fib_partition_counts(12)[: m_max - 1]
    fibs = sweep_fibs(12)
    starts = [(k, (d, fibs[k])) for k in range(2, 13) for d in (0, 1, fibs[k])]
    assert pair_completions(sweep_fibs(20), starts) == pair_completions(fibs, starts)


def test_sweep_matches_the_closed_form_far_past_the_table(solution):
    values = fib_pair_counts(MAX_SWEEP_INDEX)
    for m in (100, 1000, MAX_SWEEP_INDEX):
        assert values[m - 2] == closed_form_v(m, solution), m
    # the CLI prints V(F_m) with str(), which refuses more than 4300 digits
    assert len(str(values[-1])) == 3946


def test_carlitz_holds_to_the_sweep_cap():
    rows = check_carlitz(MAX_SWEEP_INDEX)
    assert [row.m for row in rows] == list(range(2, MAX_SWEEP_INDEX + 1))
    assert all(row.ok for row in rows)


def test_lemma_holds_past_the_table():
    rows = verify_lemma(7, 400)
    assert all(row.equal for row in rows)


@pytest.mark.parametrize("check", [lambda m: verify_lemma(7, m), check_carlitz])
def test_past_the_sweep_cap_is_refused_on_m(check):
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"F_{MAX_SWEEP_INDEX + 1}"):
        check(MAX_SWEEP_INDEX + 1)
    assert time.perf_counter() - start < 1.0


def test_sweep_rejects_small_m():
    for count in (fib_pair_counts, fib_partition_counts):
        with pytest.raises(ValueError):
            count(1)


def test_sweep_peak_memory(peak_bytes):
    # a few kilobytes a level, where a table up to F_3000 would hold 10**626 entries
    assert peak_bytes(lambda: fib_pair_counts(3000)) <= 8 * 2**20


def test_pair_completions_count_every_start_at_its_own_level():
    # against all pairs of subsets of F_2..F_k, for states the clamp would change or drop,
    # and for the diagonal (n, n) of fib_partition_counts at every n up to F_{k+2} - 2
    fibs = sweep_fibs(9)
    starts = [(k, (d, h)) for k in range(2, 10) for d in range(0, 70, 3) for h in range(-2, 90, 7)]
    starts += [(k, (n, n)) for k in range(2, 10) for n in range(fibs[k] + fibs[k + 1] - 1)]
    got = pair_completions(fibs, starts)
    for (k, (d, h)), count in zip(starts, got):
        sums = Counter([0])
        for f in fibs[2 : k + 1]:
            sums += Counter({s + f: c for s, c in sums.items()})
        want = sum(cx * sums[x - d] for x, cx in sums.items() if x <= h)
        assert count == want, (k, d, h)


def test_pair_completions_reads_a_start_given_twice():
    fibs = sweep_fibs(12)
    assert pair_completions(fibs, [(12, (0, 144)), (5, (1, 3)), (12, (0, 144))]) == [
        fib_pair_counts(12)[-1],
        *pair_completions(fibs, [(5, (1, 3))]),
        fib_pair_counts(12)[-1],
    ]


def test_pair_completions_refuse_a_negative_difference():
    # and no start at all, or a level outside [2, len(fibs) - 2]: level 1 would
    # read 0 for the empty pair's 1 completion, and level 6 would need F_7
    bad = {"d >= 0": [(5, (-1, 3))], "at least one": [], "k=1 ": [(1, (0, 0))],
           "k=6 ": [(6, (0, 0))]}
    for match, starts in bad.items():
        with pytest.raises(ValueError, match=match):
            pair_completions(sweep_fibs(5), starts)
