"""Growth exponents and the normalized-variance figure data.

A(H) grows like H^lambda with lambda = log 2 / log phi ~ 1.44, so the
Cauchy-Schwarz floor for V(H) is H^(2*lambda - 1).  The true growth exponent
is log(lambda_1)/log(phi) ~ 1.89 with lambda_1 the dominant cubic root, and
the figure data tabulates both normalizations

    norm_cs   = V(H) * H^(1 - 2*lambda)
    norm_main = V(H) * H^(-log(lambda_1)/log(phi))

for H = 1..h_max as CSV rows.  The logarithms are integers in binary fixed
point, not Decimal: _ln_fixed reduces the argument by square roots and sums
an atanh series (Brent and Zimmermann, Modern Computer Arithmetic, 2010,
ch. 4), within 2 units of its last bit, and each constant is one quotient of
two such integers, rounded once into a Decimal.  Each float cell is what
np.format_float_positional(x, precision=12, unique=False, fractional=False,
trim="k") prints, a Dragon4 rule: for 10^e <= x < 10^(e+1) with the 12-digit
mantissa m = rint(x * 10^(11-e)) it is "%#.12g" % x when e >= 0; when e < 0,
up to -e trailing zeros of m are dropped if m was rounded up or is exact, so
0.54278452084 keeps 11 digits, 0.5 prints 0.50000000000, 0.1 0.100000000000.

write_csv, the one CSV writer, applies that rule to whole columns, e from log10
and the scale an exact power of ten; each chunk of rows is one matrix of uint32
quads, gathered from tables that hold NUL where nothing prints, and written with
the NULs deleted.  Cells it cannot decide take the exact route _fixed12: x not
finite or <= 0, e outside [-4, 11] or misjudged by log10, m = 10^12 from a
carry, x * 10^(11-e) within 1e-3 of a half-integer, or, for e < 0, m ending
in 0 with x * 10^(11-e) within 1e-3 of m.  Every CSV command prints from
moment_rows, so it holds one int32 R table plus one chunk; moments.moment_table
and partitions.r_table are the whole-array API and the tests' reference.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import isqrt
from typing import TextIO

import numpy as np

from .exact import isolate_real_roots
from .partitions import _r_array

CSV_HEADER = "H,V,norm_cs,norm_main"


@dataclass(frozen=True)
class AsymptoticConstants:
    """phi, lambda = log2/log(phi), and the two variance exponents."""

    phi: Decimal
    lam: Decimal
    exponent_main: Decimal  # log(lambda_1) / log(phi)
    exponent_cs: Decimal  # 2*lambda - 1


def _ln_fixed(num: int, den: int, bits: int) -> int:
    """ln(num/den) * 2^bits, for positive integers num and den, to within 2 units.

    The ratio r >= 1 (else -ln(1/r)) is scaled to b = bits + h + 16 fixed-point
    bits, h = max(4, isqrt(bits) // 2) square roots bring it within about
    2^-h |ln r| of 1, and ln x = 2 atanh(z), z = (x - 1)/(x + 1), is summed
    until a term is 0, then doubled h times.  Each root and term truncates by
    less than one unit of 2^-b; the h doublings amplify that error by 2^h,
    and the h + 16 guard bits absorb it while the series takes fewer than
    2^14 terms: about bits / 2h for r near 1, such as 2, phi and lambda_1.
    """
    if num < den:
        return -_ln_fixed(den, num, bits)
    h = max(4, isqrt(bits) // 2)
    b = bits + h + 16
    one = 1 << b
    x = (num << b) // den
    for _ in range(h):
        x = isqrt(x << b)
    z = ((x - one) << b) // (x + one)
    z2 = (z * z) >> b
    total, term, k = 0, z, 1
    while term:
        total += term // k
        term = (term * z2) >> b
        k += 2
    return (total << (h + 1)) >> (b - bits)


def exponent_report(precision: int) -> AsymptoticConstants:
    """Compute all four constants from first principles at the given precision.

    phi comes from isqrt(5 * 4^bits); lambda_1 is the exact midpoint of its
    certified bracket from isolate_real_roots.  The logarithms are _ln_fixed
    integers at bits >= (precision + 20) * log2(10), each within 2 units of
    2^-bits, so every constant is one Decimal quotient of two integers at
    precision + 10 digits, then rounded to precision.
    """
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    bits = (precision + 20) * 10 // 3
    one = 1 << bits
    phi = (one + isqrt(5 << 2 * bits)) >> 1
    root = isolate_real_roots(precision + 5)[0]
    lam1 = (root.low + root.high) / 2
    log_2 = _ln_fixed(2, 1, bits)
    log_phi = _ln_fixed(phi, one, bits)
    log_lam1 = _ln_fixed(lam1.numerator, lam1.denominator, bits)
    ratios = ((phi, one), (log_2, log_phi), (log_lam1, log_phi), (2 * log_2 - log_phi, log_phi))
    with localcontext() as ctx:
        ctx.prec = precision + 10
        quotients = [Decimal(a) / Decimal(b) for a, b in ratios]
        ctx.prec = precision
        return AsymptoticConstants(*(+q for q in quotients))


def _fixed12(x: float) -> str:
    return np.format_float_positional(x, precision=12, unique=False, fractional=False, trim="k")


CSV_CHUNK_ROWS = 1 << 13  # rows per record matrix; larger ones leave more heap behind
_POW10, _SCALE = 10 ** np.arange(19), 10.0 ** np.arange(16)  # int64, and exact as floats
_N = np.arange(10000)[:, None]
_DIGITS = (48 + _N // [1000, 100, 10, 1] % 10).astype(np.uint8)  # ASCII digits of 0000..9999


def _quads(chars: np.ndarray, *shown) -> np.ndarray:
    """Rows of four uint8 chars as uint32 quads: a run NUL where each shown is False, then all."""
    return np.concatenate([np.where(s, chars, 0).view(np.uint32) for s in (*shown, True)]).ravel()


# A units quad is three digits and a suffix, from _UNITS (the suffix replaces the "0" ending
# _DIGITS[10 q]); a quad above it is four digits, from _HIGH.  Index q is the leading quad: zeros
# NUL, and 0 as "0" in units, as nothing above.  Index q + 1000 or q + 10000 shows every digit.
_UNITS = {c: _quads(np.where([0, 0, 0, 1], ord(c), _DIGITS[::10]), _N[::10] >= [1000, 100, 0, 0])
          for c in ",\n."}
_HIGH = _quads(_DIGITS, _N >= [1000, 100, 10, 1])
_FRAC = _quads(_DIGITS, *(np.arange(4) < np.arange(4)[:, None]))  # 10000 k + q: k digits
_KEEP = 10000 * np.clip(np.arange(16) - 4 * np.arange(4)[:, None], 0, 4)  # [quad, digits]
_SEP = dict(zip(",\n", np.frombuffer(b"\0\0\0,\0\0\0\n", np.uint32)))


def _int_quads(values: np.ndarray, sep: str) -> list:
    """Quads of str(n) + sep for each n of a non-negative int64 array, most significant first."""
    quads, high = [], values
    *lower, (top, _) = [(_UNITS[sep], 1000)] + [(_HIGH, 10000)] * (len(str(int(high.max()))) // 4)
    for table, base in lower:
        mag, high = high, high // base
        quads.append(table[np.minimum(mag, mag - high * base + base)])  # mag < base if it leads
    return [top[high]] + quads[::-1]


def _float_quads(values: np.ndarray, sep: str) -> list:
    """Quads of _fixed12(x) + sep for each float64 x; the exact route's rows are patched in."""
    ok = np.isfinite(values) & (values > 0)
    x = np.where(ok, values, 1.0)
    e = np.clip(np.floor(np.log10(x)), -4, 11).astype(np.int64)
    s = x * _SCALE[11 - e]
    m = np.rint(s)
    d = s - m  # exact; > 0 where m was rounded down
    ok &= (s >= 1e11) & (m < 1e12) & (abs(abs(d) - 0.5) >= 1e-3)  # e right, no carry, no tie
    e, m = np.where(ok, e, 0), np.where(ok, m, 0.0)
    mag = m.astype(np.int64)
    ok &= (e >= 0) | (mag // 10 * 10 != mag) | (abs(d) >= 1e-3)  # // is cheaper than %
    drop = np.zeros(len(x), dtype=np.int64)  # trailing zeros of m to drop, at most -e
    for k in range(1, 1 - min(int(e.min()), 0)):
        drop += (d <= 0) & (e <= -k) & (mag // 10**k * 10**k == mag)
    places = 11 - e  # digits after the "."
    whole = np.floor(m / _SCALE[places]).astype(np.int64)  # exact: m < 2^40
    n_frac = -(-int(places.max()) // 4)  # quads after the "."
    frac = (mag - whole * _POW10[places]) * _POW10[4 * n_frac - places]
    keep, quads, high = places - drop, [_SEP[sep]], frac
    for j in range(n_frac - 1, -1, -1):
        frac, high = high, high // 10000
        quads.append(_FRAC[frac - high * 10000 + _KEEP[j][keep]])
    quads = _int_quads(whole, ".") + quads[::-1]
    if not ok.all():  # the exact route's texts, NUL-padded, replace the quads of their rows
        texts = np.array([(_fixed12(v) + sep).encode() for v in values[~ok].tolist()])
        width = max(len(quads), -(-texts.itemsize // 4))
        quads = np.stack(np.broadcast_arrays(*quads, *[np.uint32(0)] * (width - len(quads))))
        quads[:, ~ok] = texts.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width).T
    return list(quads)


def write_csv(out: TextIO, header: str, chunks) -> None:
    """Write header, then the rows of each chunk: row i joins the i-th entries of its columns.

    A chunk is a list of equal-length numpy columns of non-negative int64, printed
    in decimal, or of float64, printed by the 12-digit rule, as one record matrix."""
    out.write(header + "\n")
    for columns in chunks:
        quads = []
        for column, sep in zip(columns, [","] * (len(columns) - 1) + ["\n"]):
            quads += (_float_quads if column.dtype.kind == "f" else _int_quads)(column, sep)
        out.write(np.stack(np.broadcast_arrays(*quads)).T.tobytes().translate(None, b"\0").decode())


def moment_rows(h_max: int):
    """Chunks [n, R(n), A(n), V(n)] of CSV_CHUNK_ROWS int64 rows for 0 <= n <= h_max.

    The int32 R table is built at the call, so a refused size raises before any
    output.  A and V carry across chunks, exact as V(H) < 2^63 below the cap."""
    r = _r_array(h_max, np.int32)

    def chunks(a=0, v=0):
        for lo in range(0, h_max + 1, CSV_CHUNK_ROWS):
            r_part = r[lo : lo + CSV_CHUNK_ROWS].astype(np.int64)
            a_part, v_part = np.cumsum(r_part) + a, np.cumsum(r_part * r_part) + v
            a, v = a_part[-1], v_part[-1]
            yield [np.arange(lo, lo + len(r_part)), r_part, a_part, v_part]

    return chunks()


def write_figure_csv(h_max: int, out: TextIO) -> None:
    """Emit the figure table as CSV (UTF-8 text, LF lines, 12 significant digits)."""
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    constants = exponent_report(30)
    e_cs, e_main = float(constants.exponent_cs), float(constants.exponent_main)

    def figure_rows(chunks):
        for h, _, _, v in chunks:
            h, v = (h[1:], v[1:]) if h[0] == 0 else (h, v)  # rows run H = 1..h_max
            log_h = np.log(h.astype(np.float64))
            v_float = v.astype(np.float64)
            yield [h, v, v_float * np.exp(-e_cs * log_h), v_float * np.exp(-e_main * log_h)]

    write_csv(out, CSV_HEADER, figure_rows(moment_rows(h_max)))
