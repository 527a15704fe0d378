"""Command-line surface: tables, verifications, the exact solve, and figure data.

Exit codes: 0 success / all checks pass, 1 usage error (argument parsing
only), 2 a verification failed, 3 a memory or size budget was exceeded or
memory ran out (printed as "out of memory" when the MemoryError has no text),
4 an internal error (a RuntimeError or ValueError from the library, such as a
failed root certificate) or a failed write to stdout, 141 stdout was closed
early.  main returns the exit code, 0 for --help included.
"""

import argparse
import os
import sys
from collections.abc import Iterable
from decimal import Decimal

from . import analysis, casework, closed_form, moments, partitions
from .errors import BudgetError
from .fibonacci import zeckendorf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell shows for a writer cut off by its reader


class _Parser(argparse.ArgumentParser):
    # argparse's own status 2 would read as a failed verification: end in EXIT_USAGE
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.format_usage()}fibvar: error: {message}\n")


def _at_least(floor: int):
    """An argparse type: an int no smaller than floor."""

    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports bad text as "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="fibvar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name, handler, help_text, parents=()):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler, parser=p)
        return p

    m_range = argparse.ArgumentParser(add_help=False)  # the flags of the three range commands
    m_range.add_argument("--from", dest="m_lo", type=_at_least(7), default=7)
    m_range.add_argument("--to", dest="m_hi", type=int, required=True)

    p = add(
        "r", _cmd_r,
        "print R(n), the number of partitions of n into distinct Fibonacci values",
    )
    p.add_argument("--n", type=int, required=True)

    p = add("zeckendorf", _cmd_zeckendorf, "print the Zeckendorf decomposition of n")
    p.add_argument("--n", type=_at_least(1), required=True)

    p = add("table", _cmd_table, "CSV of n,R(n) for 0 <= n <= h-max")
    p.add_argument("--h-max", type=_at_least(0), required=True)

    p = add("moments", _cmd_moments, "CSV of n,R(n),A(n),V(n) for 0 <= n <= h-max")
    p.add_argument("--h-max", type=_at_least(0), required=True)

    add(
        "verify-lemma", _cmd_verify_lemma,
        "check the five-term recurrence for V(F_m) on a range of m", [m_range],
    )

    add(
        "verify-cases", _cmd_verify_cases,
        "check the five-way case decomposition, counted by the sweep, on a range of m", [m_range],
    )

    add(
        "verify-w", _cmd_verify_w,
        "compare the swept auxiliary count w_m with its closed form", [m_range],
    )

    p = add("solve", _cmd_solve, "solve the recurrence exactly and print the coefficients")
    p.add_argument("--precision", type=_at_least(1), default=30)

    p = add("closed-form", _cmd_closed_form, "evaluate the exact closed form of V(F_m)")
    p.add_argument("--m", type=_at_least(2), required=True)

    p = add("exponents", _cmd_exponents, "print phi, lambda, and the variance growth exponents")
    p.add_argument("--precision", type=_at_least(1), default=30)

    p = add("figure", _cmd_figure, "CSV of H,V,norm_cs,norm_main for 1 <= H <= h-max")
    p.add_argument("--h-max", type=_at_least(1), required=True)

    p = add("check-carlitz", _cmd_check_carlitz, "check R(F_m) = floor(m/2) for 2 <= m <= to")
    p.add_argument("--to", dest="m_max", type=_at_least(2), required=True)

    p = add(
        "check-sqrt-bound", _cmd_check_sqrt_bound,
        "check R(n) <= sqrt(n+1) and its equality set up to h-max",
    )
    p.add_argument("--h-max", type=_at_least(0), required=True)

    return parser


def _cmd_r(args) -> int:
    print(partitions.r(args.n))
    return EXIT_OK


def _cmd_zeckendorf(args) -> int:
    z = zeckendorf(args.n)
    terms = " + ".join(f"F_{i}" for i in z.indices)
    values = " + ".join(map(str, z.values))
    print(f"{args.n} = {terms} = {values}")
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = ([n, r] for n, r, _, _ in analysis.moment_rows(args.h_max))  # R is built here
    analysis.write_csv(sys.stdout, "n,R", rows)
    return EXIT_OK


def _cmd_moments(args) -> int:
    analysis.write_csv(sys.stdout, "n,R,A,V", analysis.moment_rows(args.h_max))
    return EXIT_OK


def _report(name: str, rows: Iterable[tuple[str, bool]], tally: bool = False) -> int:
    """Print each (text, ok) row with its verdict as it comes, then the summary.

    The summary "name: PASS|FAIL" ends in (passed/rows) when tally is set.
    """
    passed = total = 0
    for text, ok in rows:
        print(f"{text} {'PASS' if ok else 'FAIL'}")
        passed += ok
        total += 1
    verdict = "PASS" if passed == total else "FAIL"
    print(f"{name}: {verdict} ({passed}/{total})" if tally else f"{name}: {verdict}")
    return EXIT_OK if passed == total else EXIT_VERIFY


def _m_bounds(args) -> tuple[int, int]:
    if args.m_hi < args.m_lo:
        args.parser.error(f"empty range [{args.m_lo}, {args.m_hi}]")
    return args.m_lo, args.m_hi


def _lemma_row(row) -> tuple[str, bool]:
    # str of a V(F_m) of up to 3946 digits dominates a long range: convert an equal pair once
    lhs = str(row.lhs)
    return f"m={row.m} lhs={lhs} rhs={lhs if row.equal else row.rhs}", row.equal


def _cmd_verify_lemma(args) -> int:
    rows = moments.verify_lemma(*_m_bounds(args))
    return _report("verify-lemma", map(_lemma_row, rows), tally=True)


# Both case commands check every m before printing any row, so a range that
# runs past the sweep budget exits with no partial output.
def _cmd_verify_cases(args) -> int:
    reports = casework.verify_case_range(*_m_bounds(args))
    return _report("verify-cases", (
        (f"m={r.m} " + " ".join(f"{c.name}={c.actual}/{c.expected}" for c in r.checks), r.passed)
        for r in reports
    ))


def _cmd_verify_w(args) -> int:
    checks = [
        (r.m, next(c for c in r.checks if c.name == "w"))
        for r in casework.verify_case_range(*_m_bounds(args))
    ]
    return _report(
        "verify-w", ((f"m={m} swept={c.actual} closed={c.expected}", c.ok) for m, c in checks)
    )


def _cmd_solve(args) -> int:
    sol = closed_form.solve_closed_form(precision_digits=args.precision)
    g0, g1, g2 = sol.c_field.coords()
    for name, value in (("g0", g0), ("g1", g1), ("g2", g2), ("c3", sol.c3), ("c4", sol.c4)):
        print(f"{name} = {value}")
    c1, c2, c3, c4, c5 = closed_form.embed_coefficients(sol, digits=args.precision)
    for name, value in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4), ("c5", c5)):
        print(f"{name} ~ {value}")
    # each bracket is at most 10^-p wide: its midpoint rounded to p places is within 10^-p.
    # The Decimal is built from the digit tuple: str(int) refuses more than 4300
    # digits, and Decimal arithmetic would round to the context.
    for name, root in (("lambda1", sol.lambda1), ("lambda2", sol.lambda2), ("lambda5", sol.lambda5)):
        places = Decimal(round((root.low + root.high) / 2 * 10**args.precision))
        print(f"{name} = {Decimal(places.as_tuple()._replace(exponent=-args.precision))}")
    return EXIT_OK


def _cmd_closed_form(args) -> int:
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
    rows = partitions.check_carlitz(args.m_max)
    return _report(
        "check-carlitz", ((f"m={r.m} R(F_m)={r.r_fib} floor(m/2)={r.expected}", r.ok) for r in rows)
    )


def _cmd_check_sqrt_bound(args) -> int:
    passed, positions = partitions.check_sqrt_bound(args.h_max)
    print("equality at:", " ".join(str(n) for n in positions))
    print(f"check-sqrt-bound: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed or full stdout raises here, not at exit
        return code
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    except (BudgetError, MemoryError) as exc:
        print(f"fibvar: resource budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (RuntimeError, ValueError) as exc:
        print(f"fibvar: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        # the recipe in Python's signal docs: the flush at exit must not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_PIPE
        print(f"fibvar: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
