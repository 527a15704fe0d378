"""Exact arithmetic for the cubic x^3 - 2x^2 - 2x + 2: power sums, rational solving, roots.

theta is a root of x^3 - 2x^2 - 2x + 2, which is irreducible over Q, so an
element of Q(theta) is a coordinate triple whose three embeddings evaluate it
at the three real roots of the cubic.  The power sums p_k are traces of
theta^k, which binary powering finds in Z[theta] with no cache.  Rational
scalars are fractions.Fraction.  The linear solver is fraction-free (Bareiss)
Gauss-Jordan, in one pass.  Real roots are isolated by one sign scan of
a fixed grid on the Cauchy interval [-3, 3], then narrowed to 10^-digits
wide by integer Newton steps that double the precision from the scan cell's
midpoint, no float seed (Brent and Zimmermann, Modern Computer Arithmetic,
2010, ch. 4), and certified by exact signs.  The cubic is irreducible, so it
has no rational roots: every root lies strictly inside exactly one dyadic cell
3n/2^e < x < 3(n+1)/2^e of each level e, and a cell whose ends have opposite
signs inside the root's scan cell is that cell.  Newton only proposes n; the
signs decide it, so the brackets are the cells that bisection would reach.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from typing import Sequence

# x^3 - 2x^2 - 2x + 2, coefficients by ascending degree
CUBIC_MIN_POLY: tuple[int, int, int, int] = (2, -2, -2, 1)
# 1 + max |lower coefficient| of the monic cubic (3): every root is in [-3, 3]
CAUCHY_BOUND = 1 + max(abs(c) for c in CUBIC_MIN_POLY[:-1])


class SingularMatrixError(ValueError):
    """The coefficient matrix of a linear system is singular."""


@dataclass(frozen=True)
class CubicElement:
    """g0 + g1*theta + g2*theta^2 in Q(theta)."""

    g0: Fraction
    g1: Fraction
    g2: Fraction

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.g0, self.g1, self.g2)


def _times_theta(x: tuple[int, ...]) -> tuple[int, ...]:
    """(a, b, c) = a + b*theta + c*theta^2 times theta, reduced by the monic cubic."""
    a, b, c = x
    c0, c1, c2, _ = CUBIC_MIN_POLY
    return (-c0 * c, a - c1 * c, b - c2 * c)


def power_traces(k: int) -> tuple[int, ...]:
    """(p_k, p_{k+1}, p_{k+2}), power sums of the three roots of the cubic.

    theta^k = a + b*theta + c*theta^2 comes from binary powering in Z[theta],
    squaring as a^2 + 2ab*theta + (2ac + b^2)*theta^2 + (2bc + c^2*theta)*theta^3.
    The trace is linear, so p_k = p_0*a + p_1*b + p_2*c, where Newton's
    identities give p_0, p_1, p_2 = 3, -c_2, c_2^2 - 2c_1 (3, 2, 8 here) from
    the cubic's coefficients, and multiplying by theta gives the next two.
    Nothing is kept between calls.
    """
    if k < 0:
        raise ValueError(f"power sum index must be >= 0, got {k}")
    _, c1, c2, _ = CUBIC_MIN_POLY
    p0, p1, p2 = 3, -c2, c2 * c2 - 2 * c1
    x = (1, 0, 0)
    for bit in bin(k)[2:]:
        a, b, c = x
        high = (2 * b * c, c * c, 0)
        for _ in range(3):
            high = _times_theta(high)
        x = (a * a + high[0], 2 * a * b + high[1], 2 * a * c + b * b + high[2])
        if bit == "1":
            x = _times_theta(x)
    xt = _times_theta(x)
    return tuple(p0 * a + p1 * b + p2 * c for a, b, c in (x, xt, _times_theta(xt)))


def solve_linear_system(
    matrix: Sequence[Sequence], rhs: Sequence
) -> list[Fraction]:
    """Exact solution of a square system by fraction-free Gauss-Jordan elimination.

    Rows are scaled to integers; each pivot clears its column in all other rows
    (Bareiss, Math. Comp. 22, 1968).  After pivot k each updated entry is a
    (k+1)-order minor of the augmented matrix and prev a k-order one, so // is
    exact; at the end column n holds det * x_i, with no back-substitution.
    Raises SingularMatrixError when the matrix is singular.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square matrix with a conforming right-hand side")

    # augmented integer matrix: clear denominators row by row
    aug: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        fracs = [Fraction(x) for x in row] + [Fraction(b)]
        scale = lcm(*(f.denominator for f in fracs))
        aug.append([f.numerator * (scale // f.denominator) for f in fracs])

    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {k}")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        for i in range(n):
            if i != k:
                head = aug[i][k]
                for j in range(k + 1, n + 1):
                    aug[i][j] = (pivot * aug[i][j] - head * aug[k][j]) // prev
        prev = pivot
    return [Fraction(row[n], prev) for row in aug]


@dataclass(frozen=True)
class IsolatedRoot:
    """A rational bracket [low, high] around one simple real root.

    The polynomial changes sign on the bracket, which is at most 10^-digits
    wide, and value is the midpoint to digits significant digits plus two.
    """

    low: Fraction
    high: Fraction
    value: Decimal


def _scaled_cubic(x: int, e: int) -> int:
    """The cubic at x / 2^e, scaled by 2^(3e) to an exact integer."""
    c0, c1, c2, c3 = CUBIC_MIN_POLY
    return ((c3 * x + (c2 << e)) * x + (c1 << 2 * e)) * x + (c0 << 3 * e)


def _negative_at(n: int, e: int) -> bool:
    """Whether the cubic is negative at x = CAUCHY_BOUND * n / 2^e."""
    return _scaled_cubic(CAUCHY_BOUND * n, e) < 0


_SCAN = 2  # the level e of the sign scan: eight cells on [-3, 3]
_GUARD_BITS = 8  # Newton works this far below the bracket's last bit


def _newton_root(cell: int, bits: int) -> int:
    """An integer within a few units of root * 2^bits, for the root in the scan cell.

    Each integer Newton step at q bits takes the cubic scaled by 2^(3q) over
    its derivative scaled by 2^(2q), which is f/f' in units of 2^-q.  The
    steps double the precision up to bits from the scan cell's midpoint at
    _SCAN + 3 bits or below, in integers only.  Quadratic convergence keeps the
    error within a few units of the last place; a root that close to a cell's
    end can move the proposed cell by one, which isolate_real_roots checks for.
    """
    c0, c1, c2, c3 = CUBIC_MIN_POLY
    schedule = [bits]
    while schedule[-1] > _SCAN + 3:
        schedule.append(schedule[-1] // 2 + 2)
    p = schedule[-1]
    x = CAUCHY_BOUND * (2 * cell + 1) << (p - _SCAN - 1)
    for q in reversed(schedule):
        x <<= q - p
        p = q
        df = (3 * c3 * x + (2 * c2 << q)) * x + (c1 << 2 * q)
        x -= _scaled_cubic(x, q) // df
    return x


def isolate_real_roots(digits: int) -> list[IsolatedRoot]:
    """Isolate the three real roots of the cubic, sorted by decreasing value.

    Cells are [CAUCHY_BOUND * n / 2^e, CAUCHY_BOUND * (n + 1) / 2^e].  The
    scan at e = _SCAN takes one sign per grid point, one sign change per root.
    Each root's bracket is the cell of the least level e with width at most
    10^-digits: Newton proposes n, and n is kept only when it lies in the
    root's scan cell and the cubic changes sign across it.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    grid = range(-(1 << _SCAN), (1 << _SCAN) + 1)
    signs = [_negative_at(n, _SCAN) for n in grid]
    cells = [(n, low) for n, low, high in zip(grid, signs, signs[1:]) if low != high]
    if len(cells) != 3:
        raise RuntimeError(f"expected 3 sign changes on the grid, found {len(cells)}")
    # the least e with CAUCHY_BOUND * 10^digits <= 2^e; above _SCAN for digits >= 1
    e = (CAUCHY_BOUND * 10**digits - 1).bit_length()
    roots = []
    for cell, low_negative in reversed(cells):
        x = _newton_root(cell, e + _GUARD_BITS)
        guess = x // (CAUCHY_BOUND << _GUARD_BITS)
        for n in (guess, guess - 1, guess + 1):
            if (
                n >> (e - _SCAN) == cell
                and _negative_at(n, e) == low_negative != _negative_at(n + 1, e)
            ):
                break
        else:
            raise RuntimeError(
                f"no sign change on the cells 3n/2^{e} for n within 1 of Newton's {guess}"
            )
        low = Fraction(CAUCHY_BOUND * n, 1 << e)
        high = Fraction(CAUCHY_BOUND * (n + 1), 1 << e)
        mid = (low + high) / 2
        with localcontext() as ctx:
            ctx.prec = digits + 2
            value = Decimal(mid.numerator) / Decimal(mid.denominator)
        roots.append(IsolatedRoot(low=low, high=high, value=value))
    return roots
