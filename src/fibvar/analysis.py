"""Growth exponents and the normalized-variance figure data.

A(H) grows like H^lambda with lambda = log 2 / log phi ~ 1.44, so the
Cauchy-Schwarz floor for V(H) is H^(2*lambda - 1).  The true growth exponent
is log(lambda_1)/log(phi) ~ 1.89 with lambda_1 the dominant cubic root, and
the figure data tabulates both normalizations

    norm_cs   = V(H) * H^(1 - 2*lambda)
    norm_main = V(H) * H^(-log(lambda_1)/log(phi))

for H = 1..h_max as CSV rows.  Each float cell is what
np.format_float_positional(x, precision=12, unique=False, fractional=False,
trim="k") prints: 12 significant digits in fixed point, except that this
Dragon4 rule drops trailing zeros that come from a carry or from an exact
short value, so 0.54278452084 has 11 digits, 0.5 prints as 0.50000000000
and 0.1 as 0.100000000000.  Where "%#.12g" gives fixed point ending in a
nonzero digit the two agree, and the writer uses it as the fast path.

write_csv is the one CSV row writer of the package: the CLI's tables go
through it as well.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import TextIO

import numpy as np

from .exact import isolate_real_roots
from .moments import moment_table

CSV_HEADER = "H,V,norm_cs,norm_main"


@dataclass(frozen=True)
class AsymptoticConstants:
    """phi, lambda = log2/log(phi), and the two variance exponents."""

    phi: Decimal
    lam: Decimal
    exponent_main: Decimal  # log(lambda_1) / log(phi)
    exponent_cs: Decimal  # 2*lambda - 1


def exponent_report(precision: int = 30) -> AsymptoticConstants:
    """Compute all four constants from first principles at the given precision.

    phi comes from sqrt(5); lambda_1 from certified root isolation of the
    cubic x^3 - 2x^2 - 2x + 2.
    """
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    lam1 = isolate_real_roots(Fraction(1, 10 ** (precision + 5)))[0].value
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


def _fixed12(x: float) -> str:
    s = "%#.12g" % x
    if s[-1] == "0" or "e" in s:
        return np.format_float_positional(
            x, precision=12, unique=False, fractional=False, trim="k"
        )
    return s


CSV_CHUNK_ROWS = 1 << 14


def _cells(column):
    if isinstance(column, range):
        return column
    if column.dtype.kind == "f":
        return map(_fixed12, column.tolist())
    return column.tolist()


def write_csv(out: TextIO, header: str, columns) -> None:
    """Write header, then row i as the i-th entries of columns joined by commas.

    A column is a range or a numpy array; integers print in decimal, floats
    by the 12-digit rule above.  Rows are built and written CSV_CHUNK_ROWS
    at a time.
    """
    row = ",".join(["%s"] * len(columns)) + "\n"
    out.write(header + "\n")
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        chunk = [_cells(c[lo : lo + CSV_CHUNK_ROWS]) for c in columns]
        out.write("".join([row % cells for cells in zip(*chunk)]))


def write_figure_csv(h_max: int, out: TextIO) -> None:
    """Emit the figure table as CSV (UTF-8 text, LF lines, 12 significant digits)."""
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    constants = exponent_report(30)
    v = moment_table(h_max).v[1:]  # rows run H = 1..h_max
    log_h = np.log(np.arange(1, h_max + 1, dtype=np.float64))
    v_float = v.astype(np.float64)
    norm_cs = v_float * np.exp(-float(constants.exponent_cs) * log_h)
    norm_main = v_float * np.exp(-float(constants.exponent_main) * log_h)
    write_csv(out, CSV_HEADER, [range(1, h_max + 1), v, norm_cs, norm_main])
