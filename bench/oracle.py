"""Reference values computed without the fibvar package.

Every check the benchmark makes compares a program output with a value from
this module, so a defect in the code being measured cannot also hide in its
own check:

- R(n) by the largest-part recursion P(n, k) = P(n, k-1) + P(n - F_k, k-1),
  memoised, about three states per level;
- V(F_m) from the initial data V(F_2..F_6) = (2, 3, 7, 12, 26), checked against
  sums of the recursion, then extended by the five-term recurrence;
- the cubic's roots and the growth exponents by Newton's method in Decimal.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

# distinct Fibonacci values F_2, F_3, ... = 1, 2, 3, 5, 8, ...
FIB_VALUES = [1, 2]
while len(FIB_VALUES) < 400:
    FIB_VALUES.append(FIB_VALUES[-1] + FIB_VALUES[-2])
# FIB_PREFIX[k] = F_2 + ... + F_{k+2}
FIB_PREFIX = []
for _v in FIB_VALUES:
    FIB_PREFIX.append(_v + (FIB_PREFIX[-1] if FIB_PREFIX else 0))

# paper constants (arXiv 2308.15415)
C_THETA = (Fraction(8, 37), Fraction(14, 37), Fraction(-13, 74))
C3, C4 = Fraction(5, 8), Fraction(3, 8)
PAPER_PREFIXES = {
    "lambda1": "2.4811943",
    "lam": "1.44042",
    "exponent_main": "1.88844",
    "exponent_cs": "1.88084",
}
INITIAL_DATA = (2, 3, 7, 12, 26)  # V(F_2)..V(F_6)


def fib(m: int) -> int:
    """F_m with F_1 = F_2 = 1."""
    if m < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {m}")
    return 1 if m <= 2 else FIB_VALUES[m - 2]


def partition_count(n: int) -> int:
    """R(n): partitions of n into distinct Fibonacci values."""
    if n < 0:
        return 0
    memo: dict[tuple[int, int], int] = {}

    def p(rest: int, k: int) -> int:
        # subsets of FIB_VALUES[0..k] summing to rest
        if rest == 0:
            return 1
        if k < 0 or rest > FIB_PREFIX[k]:
            return 0
        key = (rest, k)
        if key not in memo:
            take = p(rest - FIB_VALUES[k], k - 1) if FIB_VALUES[k] <= rest else 0
            memo[key] = p(rest, k - 1) + take
        return memo[key]

    top = 0
    while FIB_VALUES[top + 1] <= n:
        top += 1
    return p(n, top)


def _v_fib_series(m_max: int) -> list[int]:
    """values[m] = V(F_m) for 2 <= m <= m_max (entries 0 and 1 unused)."""
    values = [0, 0] + list(INITIAL_DATA)
    for m in range(7, m_max + 1):
        values.append(
            2 * values[m - 1] + 3 * values[m - 2] - 4 * values[m - 3]
            - 2 * values[m - 4] + 2 * values[m - 5] + 1 - 2 * (m // 2)
        )
    return values[: m_max + 1]


def _self_check_v_series(values: list[int], m_check: int = 15) -> None:
    """The recurrence and its initial data must agree with sums of R(n)^2."""
    total, n = 0, 0
    for m in range(2, m_check + 1):
        while n <= fib(m):
            total += partition_count(n) ** 2
            n += 1
        if values[m] != total:
            raise RuntimeError(f"oracle V(F_{m}) = {values[m]} but sum of R^2 = {total}")


class Oracle:
    """Reference values, built once per process before anything is timed."""

    def __init__(self, m_max: int = 4200):
        self.v_fib = _v_fib_series(m_max)
        _self_check_v_series(self.v_fib)
        self._constants: dict[int, dict[str, Decimal]] = {}

    def v_near_fib(self, m: int, d: int) -> int:
        """V(F_m + d) = V(F_m) plus or minus a short run of R(n)^2."""
        h = fib(m)
        if d >= 0:
            return self.v_fib[m] + sum(partition_count(n) ** 2 for n in range(h + 1, h + d + 1))
        return self.v_fib[m] - sum(partition_count(n) ** 2 for n in range(h + d + 1, h + 1))

    def constants(self, digits: int) -> dict[str, Decimal]:
        """The cubic's roots, phi and the three exponents, to digits + 10 places."""
        if digits not in self._constants:
            self._constants[digits] = _constants(digits + 10)
        return self._constants[digits]


def _newton_cubic_root(x: Decimal, tolerance: Decimal) -> Decimal:
    # x^3 - 2x^2 - 2x + 2
    while True:
        step = (((x - 2) * x - 2) * x + 2) / ((3 * x - 4) * x - 2)
        x -= step
        if abs(step) < tolerance:
            return x


def _constants(prec: int) -> dict[str, Decimal]:
    with localcontext() as ctx:
        ctx.prec = prec + 5
        tolerance = Decimal(10) ** -(prec + 2)
        roots = {
            name: _newton_cubic_root(Decimal(start), tolerance)
            for name, start in (("lambda1", "2.5"), ("lambda5", "0.7"), ("lambda2", "-1.2"))
        }
        phi = (1 + Decimal(5).sqrt()) / 2
        log_phi = phi.ln()
        lam = Decimal(2).ln() / log_phi
        return {
            **roots,
            "phi": phi,
            "lam": lam,
            "exponent_main": roots["lambda1"].ln() / log_phi,
            "exponent_cs": 2 * lam - 1,
        }


def sqrt_equality_positions(h: int) -> list[int]:
    """n <= h with R(n)^2 = n + 1: exactly n = F_k^2 - 1."""
    return sorted({f * f - 1 for f in [1] + FIB_VALUES if f * f - 1 <= h})


def zeckendorf_ok(n: int, indices) -> bool:
    """indices strictly decreasing, >= 2, pairwise non-adjacent, and summing to n."""
    indices = list(indices)
    if not indices or indices[-1] < 2:
        return False
    if any(a - b < 2 for a, b in zip(indices, indices[1:])):
        return False
    return sum(fib(i) for i in indices) == n
