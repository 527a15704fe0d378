"""Exact arithmetic for the cubic x^3 - 2x^2 - 2x + 2: power sums, rational solving, roots.

theta is a root of x^3 - 2x^2 - 2x + 2, which is irreducible over Q, so an
element of Q(theta) is a coordinate triple whose three embeddings evaluate it
at the three real roots of the cubic.  Scalars are fractions.Fraction
throughout, which keeps every value reduced with a positive denominator.  The
linear solver is fraction-free (Bareiss) after clearing row denominators.
Real roots are isolated by one sign scan of a fixed grid on the Cauchy
interval [-3, 3] and bisected in integer arithmetic; because the cubic has no
rational roots, no grid point or bisection midpoint can be a root.
"""

import threading
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from typing import Sequence

# x^3 - 2x^2 - 2x + 2, coefficients by ascending degree
CUBIC_MIN_POLY: tuple[int, int, int, int] = (2, -2, -2, 1)
CAUCHY_BOUND = 3  # 1 + max |coefficient| of the monic cubic: every root is in [-3, 3]


class SingularMatrixError(Exception):
    """The coefficient matrix of a linear system is singular."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CubicElement:
    """g0 + g1*theta + g2*theta^2 in Q(theta)."""

    g0: Fraction
    g1: Fraction
    g2: Fraction

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.g0, self.g1, self.g2)

    def embed(self, x: Decimal) -> Decimal:
        """Evaluate g0 + g1*x + g2*x^2 at a decimal image of theta."""
        g0, g1, g2 = (Decimal(c.numerator) / Decimal(c.denominator) for c in self.coords())
        return g0 + x * (g1 + x * g2)


_trace_lock = threading.Lock()
_trace_values = [Fraction(3), Fraction(2), Fraction(8)]


def power_trace(k: int) -> Fraction:
    """Sum of the k-th powers of the three roots of x^3 - 2x^2 - 2x + 2.

    Newton's identities give the seeds (3, 2, 8), and the cubic itself gives
    the recurrence p_k = 2 p_{k-1} + 2 p_{k-2} - 2 p_{k-3}.
    """
    if k < 0:
        raise ValueError(f"power sum index must be >= 0, got {k}")
    with _trace_lock:
        while len(_trace_values) <= k:
            _trace_values.append(
                -sum(c * p for c, p in zip(CUBIC_MIN_POLY, _trace_values[-3:]))
            )
        return _trace_values[k]


def solve_linear_system(
    matrix: Sequence[Sequence], rhs: Sequence
) -> list[Fraction]:
    """Exact solution of a square system by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first, so all intermediate arithmetic is
    integer-exact division; the answer comes back as reduced Fractions.
    Raises SingularMatrixError when the matrix is singular.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square matrix with a conforming right-hand side")

    # augmented integer matrix: clear denominators row by row
    aug: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        fracs = [_frac(x) for x in row] + [_frac(b)]
        scale = 1
        for f in fracs:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        aug.append([int(f * scale) for f in fracs])

    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {k}")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        for i in range(k + 1, n):
            head = aug[i][k]
            for j in range(k + 1, n + 1):
                aug[i][j] = (pivot * aug[i][j] - head * aug[k][j]) // prev
            aug[i][k] = 0
        prev = pivot

    solution: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * solution[j]
        solution[i] = acc / aug[i][i]
    return solution


@dataclass(frozen=True)
class IsolatedRoot:
    """A rational bracket [low, high] around one simple real root.

    The polynomial changes sign on the bracket, high - low <= precision, and
    value is a decimal approximation of the midpoint.
    """

    low: Fraction
    high: Fraction
    value: Decimal
    precision: Fraction


def _decimal_digits(precision: Fraction) -> int:
    digits = 0
    bound = Fraction(1)
    while bound > precision:
        bound /= 10
        digits += 1
    return max(digits, 1)


def _to_decimal(x: Fraction, digits: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits + 2
        return Decimal(x.numerator) / Decimal(x.denominator)


def _negative_at(n: int, e: int) -> bool:
    """Whether the cubic is negative at x = CAUCHY_BOUND * n / 2^e."""
    c0, c1, c2, c3 = CUBIC_MIN_POLY
    x = CAUCHY_BOUND * n  # the point is x / 2^e; f is scaled by 2^(3e)
    return ((c3 * x + (c2 << e)) * x + (c1 << 2 * e)) * x + (c0 << 3 * e) < 0


def isolate_real_roots(precision: Fraction = Fraction(1, 10**30)) -> list[IsolatedRoot]:
    """Isolate the three real roots of the cubic, sorted by decreasing value.

    Grid points and bisection midpoints are CAUCHY_BOUND * n / 2^e.  The scan
    at e = 2 (eight cells on [-3, 3]) finds one sign change per root, and each
    cell is halved toward its sign change until its width is at most
    precision.
    """
    precision = _frac(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    scan = 2
    cells = [
        n
        for n in range(-(1 << scan), 1 << scan)
        if _negative_at(n, scan) != _negative_at(n + 1, scan)
    ]
    if len(cells) != 3:
        raise RuntimeError(f"expected 3 sign changes on the grid, found {len(cells)}")
    e = scan
    while CAUCHY_BOUND * precision.denominator > precision.numerator << e:
        e += 1
    digits = _decimal_digits(precision)
    roots = []
    for n in reversed(cells):
        low_negative = _negative_at(n, scan)
        for k in range(scan + 1, e + 1):
            n = 2 * n + 1 if _negative_at(2 * n + 1, k) == low_negative else 2 * n
        low = Fraction(CAUCHY_BOUND * n, 1 << e)
        high = Fraction(CAUCHY_BOUND * (n + 1), 1 << e)
        roots.append(
            IsolatedRoot(
                low=low,
                high=high,
                value=_to_decimal((low + high) / 2, digits),
                precision=precision,
            )
        )
    return roots
