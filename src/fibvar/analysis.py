"""Growth exponents and the normalized-variance figure data.

A(H) grows like H^lambda with lambda = log 2 / log phi ~ 1.44, so the
Cauchy-Schwarz floor for V(H) is H^(2*lambda - 1).  The true growth exponent
is log(lambda_1)/log(phi) ~ 1.89 with lambda_1 the dominant cubic root, and
the figure data tabulates both normalizations

    norm_cs   = V(H) * H^(1 - 2*lambda)
    norm_main = V(H) * H^(-log(lambda_1)/log(phi))

for H = 1..h_max as CSV rows.
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
    # fixed-point, exactly 12 significant digits
    return np.format_float_positional(
        x, precision=12, unique=False, fractional=False, trim="k"
    )


def write_figure_csv(h_max: int, out: TextIO) -> None:
    """Emit the figure table as CSV (UTF-8 text, LF lines, 12 significant digits)."""
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    constants = exponent_report(30)
    moments = moment_table(h_max)
    v = moments.v[1:]  # rows run H = 1..h_max
    log_h = np.log(np.arange(1, h_max + 1, dtype=np.float64))
    v_float = v.astype(np.float64)
    norm_cs = v_float * np.exp(-float(constants.exponent_cs) * log_h)
    norm_main = v_float * np.exp(-float(constants.exponent_main) * log_h)
    out.write(CSV_HEADER + "\n")
    for i in range(h_max):
        out.write(
            f"{i + 1},{int(v[i])},{_fixed12(float(norm_cs[i]))},{_fixed12(float(norm_main[i]))}\n"
        )
