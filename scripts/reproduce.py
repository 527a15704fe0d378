#!/usr/bin/env python3
"""Run every verification end to end and regenerate the figure data.

Runs the fibvar check commands in process, each under a "$ fibvar ..." line
and printing its rows and verdict exactly as on the command line, then the
checks that no command makes.  Writes figure_6765.csv and figure_75025.csv
(the two normalized-variance plots) into --outdir through `fibvar figure`.
Prints its wall time on stderr, and exits nonzero if anything fails: a
command that exits nonzero counts as one failure.
"""

import argparse
import sys
import time
from contextlib import redirect_stdout
from decimal import Decimal, localcontext
from pathlib import Path

from fibvar import cli
from fibvar.analysis import exponent_report
from fibvar.closed_form import closed_form_v, embed_coefficients, solve_closed_form
from fibvar.sweep import fib_pair_counts

COMMANDS = (
    ("verify-lemma", "--to", "28"),
    ("verify-cases", "--to", "16"),
    ("check-carlitz", "--to", "28"),
    ("check-sqrt-bound", "--h-max", "1000000"),
    ("solve", "--precision", "15"),
    ("exponents",),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("figures"))
    args = parser.parse_args()

    failures = 0
    start = time.perf_counter()

    def check(label, ok):
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        failures += not ok

    for argv in COMMANDS:
        print(f"$ fibvar {' '.join(argv)}")
        failures += cli.main(list(argv)) != cli.EXIT_OK

    print("closed form and asymptotics")
    v = [0, 0, *fib_pair_counts(30)]  # v[m] is V(F_m)
    sol = solve_closed_form()
    check(
        "closed form matches the sweep for m in [2, 28]",
        all(closed_form_v(m, sol) == v[m] for m in range(2, 29)),
    )
    with localcontext() as ctx:
        ctx.prec = 40
        c1 = embed_coefficients(sol, digits=40)[0]
        ratio = Decimal(v[30]) / (c1 * sol.lambda1.value**30)
    print(f"  V(F_30) / (c1 * lambda1^30) = {+ratio}")
    check("ratio within 1e-6 of 1", abs(ratio - 1) < Decimal("1e-6"))
    constants = exponent_report(30)
    check("exponent_cs < exponent_main", constants.exponent_cs < constants.exponent_main)

    args.outdir.mkdir(parents=True, exist_ok=True)
    for h_max in (6765, 75025):
        path = args.outdir / f"figure_{h_max}.csv"
        print(f"$ fibvar figure --h-max {h_max} > {path}")
        with open(path, "w", newline="\n") as handle, redirect_stdout(handle):
            failures += cli.main(["figure", "--h-max", str(h_max)]) != cli.EXIT_OK

    print(f"done, {failures} failure(s)")
    # the wall time goes to stderr, so that stdout is the same on every run
    print(f"done in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
