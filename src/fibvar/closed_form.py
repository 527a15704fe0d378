"""Exact solution of the inhomogeneous five-term recurrence for V(F_m).

The homogeneous part has characteristic polynomial

    x^5 - 2x^4 - 3x^3 + 4x^2 + 2x - 2 = (x - 1)(x + 1)(x^3 - 2x^2 - 2x + 2),

so the general solution mixes powers of lambda_3 = 1, lambda_4 = -1 and the
three real roots lambda_1 > lambda_5 > lambda_2 of the cubic.  A particular
solution of the forced recurrence is m^2/4 - m*eps_m/2 with eps_m = m mod 2.

Because the three irrational roots are conjugate, the matching coefficients
c_1, c_2, c_5 are the embeddings of a single element c(theta) of Q(theta),
and the sum over them of c_i * lambda_i^m is the trace Tr(c(theta) theta^m)
= g0*p_m + g1*p_{m+1} + g2*p_{m+2}, a rational linear functional of the
coordinates of c(theta).  Matching the initial data (V(F_2)..V(F_6)) =
(2, 3, 7, 12, 26) therefore reduces to one 5x5 rational solve in the
unknowns (g0, g1, g2, c3, c4): row m reads

    g0*p_m + g1*p_{m+1} + g2*p_{m+2} + c3 + (-1)^m c4
        = V(F_m) - (m^2/4 - m*eps_m/2),      m = 2..6,

with right-hand side (1, 9/4, 3, 33/4, 17).
"""

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .exact import CubicElement, IsolatedRoot, isolate_real_roots, power_traces, solve_linear_system
from .moments import INITIAL


def particular_part(m: int) -> Fraction:
    """m^2/4 - m*eps_m/2, the parity-split quadratic particular solution."""
    if m < 2:
        raise ValueError(f"particular solution defined for m >= 2, got {m}")
    eps = m % 2
    return Fraction(m * m, 4) - Fraction(m * eps, 2)


def build_trace_system() -> tuple[list[list[int]], list[Fraction]]:
    """The 5x5 rational system in (g0, g1, g2, c3, c4); rows are m = 2..6."""
    matrix = []
    rhs = []
    for m in range(2, 7):
        matrix.append([*power_traces(m), 1, (-1) ** m])
        rhs.append(INITIAL[m - 2] - particular_part(m))
    return matrix, rhs


@dataclass(frozen=True)
class ClosedFormSolution:
    """Exact coefficients plus certified numeric roots of the cubic factor.

    The roots come in decreasing order, as isolate_real_roots returns them:
    (lambda_1, lambda_5, lambda_2), numerically about (2.4812, 0.6889, -1.1701).
    """

    c_field: CubicElement
    c3: Fraction
    c4: Fraction
    lambda1: IsolatedRoot = field(repr=False)
    lambda5: IsolatedRoot = field(repr=False)
    lambda2: IsolatedRoot = field(repr=False)


def solve_closed_form(precision_digits: int = 30) -> ClosedFormSolution:
    """Solve the trace system exactly and isolate the cubic's roots."""
    matrix, rhs = build_trace_system()
    g0, g1, g2, c3, c4 = solve_linear_system(matrix, rhs)
    roots = isolate_real_roots(precision_digits)
    return ClosedFormSolution(CubicElement(g0, g1, g2), c3, c4, *roots)


def closed_form_v(m: int, sol: ClosedFormSolution) -> Fraction:
    """Exact V(F_m) from the closed form; always a nonnegative integer.

    Evaluates g0*p_m + g1*p_{m+1} + g2*p_{m+2} + c3 + (-1)^m c4 plus the
    particular part over the rationals, from one binary powering theta^m.
    """
    particular = particular_part(m)  # refuses m < 2, naming m, before any powering
    trace_part = sum(g * p for g, p in zip(sol.c_field.coords(), power_traces(m)))
    return trace_part + sol.c3 + (-1) ** m * sol.c4 + particular


def embed_coefficients(
    sol: ClosedFormSolution, digits: int
) -> tuple[Decimal, Decimal, Decimal, Decimal, Decimal]:
    """Decimal values of (c_1, c_2, c_3, c_4, c_5), c_i attached to lambda_i.

    c(theta) cancels about two digits at lambda_1, so it is evaluated at roots
    isolated to 10^-(digits + 10), working at digits + 10, and rounded once.
    """
    lam1, lam5, lam2 = (r.value for r in isolate_real_roots(digits + 10))
    with localcontext() as ctx:
        ctx.prec = digits + 10
        g0, g1, g2 = (Decimal(c.numerator) / Decimal(c.denominator) for c in sol.c_field.coords())
        c1, c2, c5 = (g0 + lam * (g1 + lam * g2) for lam in (lam1, lam2, lam5))
        ctx.prec = digits
        c3, c4 = (Decimal(c.numerator) / Decimal(c.denominator) for c in (sol.c3, sol.c4))
        return +c1, +c2, c3, c4, +c5
