"""Command-line surface: tables, verifications, the exact solve, and figure data.

Exit codes: 0 success / all checks pass, 1 usage error, 2 a verification
failed, 3 a memory or enumeration budget was exceeded, 4 an internal error
(a RuntimeError from the library, such as a failed root certificate).
"""

import argparse
import sys
from decimal import Decimal

from . import analysis, casework, closed_form, moments, partitions
from .errors import BudgetError
from .fibonacci import fib, zeckendorf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # verification-failure code; route usage problems through EXIT_USAGE.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fibvar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add(
        "r", _cmd_r,
        "print R(n), the number of partitions of n into distinct Fibonacci values",
    )
    p.add_argument("--n", type=int, required=True)

    p = add("zeckendorf", _cmd_zeckendorf, "print the Zeckendorf decomposition of n")
    p.add_argument("--n", type=int, required=True)

    p = add("table", _cmd_table, "CSV of n,R(n) for 0 <= n <= h-max")
    p.add_argument("--h-max", type=int, required=True)

    p = add("moments", _cmd_moments, "CSV of n,R(n),A(n),V(n) for 0 <= n <= h-max")
    p.add_argument("--h-max", type=int, required=True)

    p = add(
        "verify-lemma", _cmd_verify_lemma,
        "check the five-term recurrence for V(F_m) on a range of m",
    )
    p.add_argument("--from", dest="m_lo", type=int, default=7)
    p.add_argument("--to", dest="m_hi", type=int, required=True)

    p = add(
        "verify-cases", _cmd_verify_cases,
        "brute-force the five-way case decomposition on a range of m",
    )
    p.add_argument("--from", dest="m_lo", type=int, default=7)
    p.add_argument("--to", dest="m_hi", type=int, required=True)

    p = add(
        "verify-w", _cmd_verify_w,
        "compare the brute-forced auxiliary count w_m with its closed form",
    )
    p.add_argument("--from", dest="m_lo", type=int, default=7)
    p.add_argument("--to", dest="m_hi", type=int, required=True)

    p = add("solve", _cmd_solve, "solve the recurrence exactly and print the coefficients")
    p.add_argument("--precision", type=int, default=30)

    p = add("closed-form", _cmd_closed_form, "evaluate the exact closed form of V(F_m)")
    p.add_argument("--m", type=int, required=True)

    p = add("exponents", _cmd_exponents, "print phi, lambda, and the variance growth exponents")
    p.add_argument("--precision", type=int, default=30)

    p = add("figure", _cmd_figure, "CSV of H,V,norm_cs,norm_main for 1 <= H <= h-max")
    p.add_argument("--h-max", type=int, required=True)

    p = add("check-carlitz", _cmd_check_carlitz, "check R(F_m) = floor(m/2) for 2 <= m <= to")
    p.add_argument("--to", dest="m_max", type=int, required=True)

    p = add(
        "check-sqrt-bound", _cmd_check_sqrt_bound,
        "check R(n) <= sqrt(n+1) and its equality set up to h-max",
    )
    p.add_argument("--h-max", type=int, required=True)

    return parser


def _cmd_r(args) -> int:
    print(partitions.r(args.n))
    return EXIT_OK


def _cmd_zeckendorf(args) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    repr_ = zeckendorf(args.n)
    terms = " + ".join(f"F_{i}" for i in repr_.indices)
    values = " + ".join(str(fib(i)) for i in repr_.indices)
    print(f"{args.n} = {terms} = {values}")
    return EXIT_OK


def _cmd_table(args) -> int:
    table = partitions.r_table(args.h_max)
    analysis.write_csv(sys.stdout, "n,R", [range(args.h_max + 1), table.r])
    return EXIT_OK


def _cmd_moments(args) -> int:
    mom = moments.moment_table(args.h_max)
    # R back from A, exact in int64: 24 bytes per entry with A and V
    r = mom.a.copy()
    r[1:] -= mom.a[:-1]
    analysis.write_csv(sys.stdout, "n,R,A,V", [range(args.h_max + 1), r, mom.a, mom.v])
    return EXIT_OK


def _cmd_verify_lemma(args) -> int:
    ms = _m_range(args)
    rows = moments.verify_lemma(ms[0], ms[-1])
    for row in rows:
        print(f"m={row.m} lhs={row.lhs} rhs={row.rhs} {'PASS' if row.equal else 'FAIL'}")
    ok = all(row.equal for row in rows)
    print(f"verify-lemma: {'PASS' if ok else 'FAIL'} ({sum(r.equal for r in rows)}/{len(rows)})")
    return EXIT_OK if ok else EXIT_VERIFY


def _m_range(args) -> range:
    if args.m_lo < 7:
        raise _UsageError(f"--from must be >= 7, got {args.m_lo}")
    if args.m_hi < args.m_lo:
        raise _UsageError(f"empty range [{args.m_lo}, {args.m_hi}]")
    return range(args.m_lo, args.m_hi + 1)


# Both range commands compute every row before printing any, so a range that
# runs past the enumeration budget exits with no partial output.
def _cmd_verify_cases(args) -> int:
    reports = [casework.verify_cases(m) for m in _m_range(args)]
    for report in reports:
        detail = " ".join(f"{c.name}={c.actual}/{c.expected}" for c in report.checks)
        print(f"m={report.m} {detail} {'PASS' if report.passed else 'FAIL'}")
    ok = all(report.passed for report in reports)
    print(f"verify-cases: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify_w(args) -> int:
    ms = _m_range(args)
    # brute force first, so a range past the enumeration budget builds no table
    bruteforced = [casework.w_bruteforce(m) for m in ms]
    series = moments.fib_moment_series(ms[-1] - 3)
    rows = list(zip(ms, bruteforced, map(series.w, ms)))
    for m, brute, closed in rows:
        print(f"m={m} brute={brute} closed={closed} {'PASS' if brute == closed else 'FAIL'}")
    ok = all(brute == closed for _, brute, closed in rows)
    print(f"verify-w: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_solve(args) -> int:
    sol = closed_form.solve_closed_form(precision_digits=args.precision)
    g0, g1, g2 = sol.c_field.coords()
    for name, value in (("g0", g0), ("g1", g1), ("g2", g2), ("c3", sol.c3), ("c4", sol.c4)):
        print(f"{name} = {value}")
    c1, c2, c3, c4, c5 = closed_form.embed_coefficients(sol, digits=args.precision)
    for name, value in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4), ("c5", c5)):
        print(f"{name} ~ {value}")
    # each bracket is at most 10^-p wide: its midpoint rounded to p places is within 10^-p
    for name, root in (("lambda1", sol.lambda1), ("lambda2", sol.lambda2), ("lambda5", sol.lambda5)):
        places = round((root.low + root.high) / 2 * 10**args.precision)
        print(f"{name} = {Decimal(f'{places}E-{args.precision}')}")
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    if args.m < 2:
        raise _UsageError(f"--m must be >= 2, got {args.m}")
    sol = closed_form.solve_closed_form()
    value = closed_form.closed_form_v(args.m, sol)
    if value.denominator != 1:
        print(f"V(F_{args.m}) = {value}  (non-integer!)")
        return EXIT_VERIFY
    # str(int) refuses more than 4300 digits by default; str(Decimal) has no cap
    print(f"V(F_{args.m}) = {Decimal(value.numerator)}")
    return EXIT_OK


def _cmd_exponents(args) -> int:
    constants = analysis.exponent_report(precision=args.precision)
    print(f"phi = {constants.phi}")
    print(f"lambda = {constants.lam}")
    print(f"exponent_cs = {constants.exponent_cs}")
    print(f"exponent_main = {constants.exponent_main}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    analysis.write_figure_csv(args.h_max, sys.stdout)
    return EXIT_OK


def _cmd_check_carlitz(args) -> int:
    if args.m_max < 2:
        raise _UsageError(f"--to must be >= 2, got {args.m_max}")
    rows = partitions.check_carlitz(args.m_max)
    for row in rows:
        print(
            f"m={row.m} R(F_m)={row.r_fib} floor(m/2)={row.expected} "
            f"{'PASS' if row.ok else 'FAIL'}"
        )
    ok = all(row.ok for row in rows)
    print(f"check-carlitz: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_check_sqrt_bound(args) -> int:
    passed, positions = partitions.check_sqrt_bound(args.h_max)
    print("equality at:", " ".join(str(n) for n in positions))
    print(f"check-sqrt-bound: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"fibvar: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"fibvar: resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"fibvar: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"fibvar: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
