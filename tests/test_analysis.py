import io
import os
import time
from decimal import Decimal, localcontext
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibvar import analysis
from fibvar.analysis import (
    CSV_HEADER,
    AsymptoticConstants,
    _fixed12,
    _ln_fixed,
    exponent_report,
    moment_rows,
    write_csv,
    write_figure_csv,
)
from fibvar.errors import BudgetError
from fibvar.exact import isolate_real_roots
from fibvar.fibonacci import fib_list
from fibvar.moments import moment_table
from fibvar.partitions import r_table

F = fib_list(25)


def test_exponent_values():
    c = exponent_report(30)
    assert abs(c.phi - Decimal("1.61803398874989484820458683437")) < Decimal("1e-25")
    assert abs(c.lam - Decimal("1.44042009041255647901755149959")) < Decimal("1e-25")
    assert abs(c.exponent_main - Decimal("1.88844074722255490488695341448")) < Decimal("1e-25")
    assert abs(c.exponent_cs - Decimal("1.88084018082511295803510299918")) < Decimal("1e-25")


def test_exponent_bands():
    c = exponent_report(30)
    assert Decimal("1.4404") < c.lam < Decimal("1.4405")
    assert Decimal("1.88") < c.exponent_main < Decimal("1.90")
    assert c.exponent_cs < c.exponent_main
    assert c.exponent_main - c.exponent_cs > Decimal("0.005")


def decimal_exponent_report(precision):
    """Reference for exponent_report: the same constants by Decimal.sqrt and Decimal.ln."""
    lam1 = isolate_real_roots(precision + 5)[0].value
    with localcontext() as ctx:
        ctx.prec = precision + 10
        phi = (1 + Decimal(5).sqrt()) / 2
        log_phi = phi.ln()
        lam = Decimal(2).ln() / log_phi
        exponent_main = lam1.ln() / log_phi
        exponent_cs = 2 * lam - 1
        ctx.prec = precision
        return AsymptoticConstants(
            phi=+phi, lam=+lam, exponent_main=+exponent_main, exponent_cs=+exponent_cs
        )


def test_exponent_report_equals_the_decimal_reference():
    for precision in [*range(1, 401), 1000]:
        assert exponent_report(precision) == decimal_exponent_report(precision), precision


def _phi_fixed(bits):
    return ((1 << bits) + isqrt(5 << 2 * bits)) >> 1


def _bracket_midpoint(root):
    """The ratio exponent_report passes to _ln_fixed for lambda_1."""
    return (root.low + root.high) / 2


@pytest.mark.parametrize(
    "ratio",
    [
        lambda bits: (2, 1),
        lambda bits: (_phi_fixed(bits), 1 << bits),
        lambda bits: _bracket_midpoint(isolate_real_roots(610)[0]).as_integer_ratio(),
        lambda bits: (1, 1),
        lambda bits: (3, 2),
        lambda bits: (1, 7),
        lambda bits: (10**40, 1),
    ],
    ids=["2", "phi", "lambda1", "1", "3/2", "1/7", "10^40"],
)
def test_ln_fixed_is_within_two_units_of_decimal_ln(ratio):
    bits = 600 * 10 // 3  # what exponent_report(580) uses
    num, den = ratio(bits)
    got = _ln_fixed(num, den, bits)
    with localcontext() as ctx:
        ctx.prec = 700
        expected = (Decimal(num) / Decimal(den)).ln() * Decimal(2) ** bits
    assert abs(got - expected) < 2
    if num == den:
        assert got == 0


def test_exponent_report_past_the_int_str_digit_limit():
    start = time.perf_counter()
    wide = exponent_report(4300)
    assert time.perf_counter() - start < 2
    narrow = exponent_report(1000)
    with localcontext() as ctx:
        ctx.prec = 1000
        for name in ("phi", "lam", "exponent_main", "exponent_cs"):
            value = getattr(wide, name)
            assert len(value.as_tuple().digits) == 4300, name
            assert +value == getattr(narrow, name), name


def test_exponent_report_rejects_bad_precision():
    with pytest.raises(ValueError):
        exponent_report(0)


def test_first_figure_row():
    out = io.StringIO()
    write_figure_csv(1, out)
    h, v, norm_cs, norm_main = out.getvalue().splitlines()[1].split(",")
    assert (h, v) == ("1", "2")  # V(1) = R(0)^2 + R(1)^2
    assert float(norm_cs) == pytest.approx(2.0)
    assert float(norm_main) == pytest.approx(2.0)


def test_csv_shape_and_formatting():
    out = io.StringIO()
    write_figure_csv(55, out)
    lines = out.getvalue().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""  # trailing LF
    rows = lines[1:-1]
    assert len(rows) == 55
    assert "\r" not in out.getvalue()
    h, v, norm_cs, norm_main = rows[0].split(",")
    assert (h, v) == ("1", "2")
    # fixed-point, 12 significant digits
    assert norm_cs == "2.00000000000"
    for cell in rows[54].split(",")[2:]:
        digits = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) == 12


def _dragon4_12(x):
    return np.format_float_positional(x, precision=12, unique=False, fractional=False, trim="k")


@pytest.mark.parametrize(
    "x, text",
    [
        (0.54278452084, "0.54278452084"),  # rounds up into a trailing zero, which is dropped
        (0.5427845208400001, "0.542784520840"),
        (0.5, "0.50000000000"),
        (0.1, "0.100000000000"),
        (2.0, "2.00000000000"),
        (10.0, "10.0000000000"),
    ],
)
def test_figure_cells_follow_the_dragon4_rule(x, text):
    assert _dragon4_12(x) == text
    assert _fixed12(x) == text
    assert _csv_cells(np.array([x])) == [text]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_figure_cells_match_dragon4_on_any_float(x):
    assert _csv_cells(np.array([x])) == [_dragon4_12(x)]


def _csv_cells(column):
    out = io.StringIO()
    write_csv(out, "x", [[column]])
    header, *cells, last = out.getvalue().split("\n")
    assert (header, last) == ("x", "")
    return cells


def _step(x, ulps):
    return float((np.array([x]).view(np.int64) + ulps).view(np.float64)[0])


_ULPS = st.integers(-8, 8)
_MANTISSAS = st.integers(10**11, 10**12 - 1) | st.integers(10**7, 10**8 - 1).map(
    lambda q: q * 10**4 + 9999  # rounding up carries through four nines
) | st.integers(10**7, 10**8 - 1).map(lambda q: q * 10**4)  # ends in zeros
_CELL_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # signs, zeros, subnormals, huge
    st.builds(_step, st.integers(-6, 13).map(lambda k: 10.0**k), _ULPS),
    st.builds(_step, st.sampled_from([0.54278452084, 0.0242541429599622]), _ULPS),
    st.builds(  # near a tie or an exact value in the 12th digit, e from -5 to 12
        lambda m, frac, e: (m + frac) / 10.0 ** (11 - e),
        _MANTISSAS,
        st.floats(0.49, 0.51) | st.floats(-0.01, 0.01) | st.floats(0, 1),
        st.integers(-5, 12),
    ),
)


@settings(max_examples=300)
@given(st.lists(_CELL_FLOATS, min_size=1, max_size=40))
def test_csv_float_cells_match_dragon4(xs):
    assert _csv_cells(np.array(xs, dtype=np.float64)) == [_dragon4_12(x) for x in xs]


_INT64 = st.integers(0, 2**63 - 1) | st.sampled_from([0, 9, 10, 99, 10**18 - 1, 10**18, 2**63 - 1])


@given(st.lists(_INT64, min_size=1, max_size=40))
def test_csv_int_cells_match_str(ns):
    assert _csv_cells(np.array(ns, dtype=np.int64)) == [str(n) for n in ns]


def test_csv_range_column_and_separators():
    out = io.StringIO()
    columns = [np.arange(4), np.array([5, 60, 0, 7]), np.array([0.5, 2.0, -1.0, 1e20])]
    write_csv(out, "n,x,y", [columns])
    assert out.getvalue() == (
        "n,x,y\n0,5,0.50000000000\n1,60,2.00000000000\n"
        "2,0,-1.00000000000\n3,7,100000000000000000000.\n"
    )


def _csv_reference(header, columns):
    """write_csv's output row by row: str for integers, _fixed12 for floats."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(_fixed12(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "".join(line + "\n" for line in lines)


_C = analysis.CSV_CHUNK_ROWS
_LATE_INTS = [0, 9, 10, 999, 10**4, 10**18, 2**63 - 1]  # width edges: last chunk only
_LATE_FLOATS = [0.0, -1.0, 1e20, float("nan"), float("inf"), 1e-300, 123456789012.5]


@pytest.mark.parametrize("n_rows", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_multi_chunk_csv_matches_the_row_reference(n_rows):
    rng = np.random.default_rng(n_rows)
    ints = rng.integers(0, 1000, n_rows)
    floats = rng.uniform(1, 10, n_rows) * 10.0 ** rng.integers(-3, 11, n_rows)
    late = slice(max(n_rows - len(_LATE_FLOATS), 0), n_rows)
    ints[late] = _LATE_INTS[: len(ints[late])]
    floats[late] = _LATE_FLOATS[: len(floats[late])]
    n = np.arange(7, 7 + 3 * n_rows, 3)
    columns = [n, ints, floats, np.full(n_rows, 0.5), ints[::-1].copy()]
    out = io.StringIO()
    write_csv(out, "n,a,x,y,b", ([c[lo : lo + _C] for c in columns] for lo in range(0, n_rows, _C)))
    text = out.getvalue()
    lists = [c.tolist() for c in columns]
    got, want = text.split("\n"), _csv_reference("n,a,x,y,b", lists).split("\n")
    assert len(got) == len(want)
    assert [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b][:3] == []  # rows differ
    assert text.isascii() and "\0" not in text


@pytest.mark.parametrize("h_max", [0, 1, _C - 2, _C - 1, _C, 2 * _C + 1, F[25]])
def test_moment_rows_match_the_whole_tables(h_max):
    chunks = list(moment_rows(h_max))
    assert all(c.dtype == np.int64 and len(c) <= _C for chunk in chunks for c in chunk)
    n, r, a, v = (np.concatenate(columns) for columns in zip(*chunks))
    table = moment_table(h_max)
    assert np.array_equal(n, np.arange(h_max + 1)) and np.array_equal(r, r_table(h_max).r)
    assert np.array_equal(a, table.a) and np.array_equal(v, table.v)


def test_moments_csv_peak_memory_is_the_int32_table(peak_bytes):
    h_max = 10**6
    with open(os.devnull, "w") as sink:
        peak = peak_bytes(lambda: write_csv(sink, "n,R,A,V", moment_rows(h_max)))
    assert peak <= 4 * (h_max + 1) + 2**22


def test_few_figure_cells_take_the_exact_route(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return _fixed12(x)

    monkeypatch.setattr(analysis, "_fixed12", counted)
    write_figure_csv(150000, io.StringIO())
    assert len(calls) < 0.01 * 2 * 150000


def test_csv_determinism():
    first, second = io.StringIO(), io.StringIO()
    write_figure_csv(300, first)
    write_figure_csv(300, second)
    assert first.getvalue() == second.getvalue()


def test_norm_main_band_at_fib_checkpoints():
    # oracle-calibrated: V(F_m) * F_m^(-exponent_main) settles near 0.336
    c = exponent_report(30)
    moments = moment_table(F[25])
    for m in range(10, 26):
        h = F[m]
        norm = moments.v_at(h) * float(h) ** -float(c.exponent_main)
        assert 0.32 < norm < 0.36, (m, norm)


def test_norm_cs_growth_at_fib_checkpoints():
    # oracle-calibrated: strictly increasing from m = 13 on (it dips before)
    c = exponent_report(30)
    moments = moment_table(F[25])
    norms = {
        m: moments.v_at(F[m]) * float(F[m]) ** (1 - 2 * float(c.lam))
        for m in range(12, 26)
    }
    assert norms[12] > norms[13]
    for m in range(13, 25):
        assert norms[m] < norms[m + 1], m


def test_figure_rejects_bad_h_max():
    with pytest.raises(ValueError):
        write_figure_csv(0, io.StringIO())
    with pytest.raises(BudgetError):
        write_figure_csv(10**9, io.StringIO())
