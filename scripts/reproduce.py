#!/usr/bin/env python3
"""Run every verification end to end and regenerate the figure data.

Writes figure_6765.csv and figure_75025.csv (the two normalized-variance
plots) into --outdir and prints a summary of all checks on stdout, and its
wall time on stderr.  Exits nonzero if anything fails.
"""

import argparse
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

from fibvar.analysis import exponent_report, write_figure_csv
from fibvar.casework import verify_case_range
from fibvar.closed_form import closed_form_v, embed_coefficients, solve_closed_form
from fibvar.moments import INITIAL, verify_lemma
from fibvar.partitions import check_carlitz, check_sqrt_bound
from fibvar.sweep import fib_pair_counts

LEMMA_M_MAX = 28
CASES_M_MAX = 16


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

    v = [0, 0, *fib_pair_counts(30)]  # v[m] is V(F_m)
    print("initial data")
    check(f"V(F_2..F_6) = {INITIAL}", tuple(v[2:7]) == INITIAL)

    print(f"five-term recurrence, m in [7, {LEMMA_M_MAX}]")
    rows = verify_lemma(7, LEMMA_M_MAX)
    check(f"{len(rows)} checkpoints", all(r.equal for r in rows))

    print(f"case decomposition, m in [7, {CASES_M_MAX}]")
    reports = verify_case_range(7, CASES_M_MAX)
    check(f"{len(reports)} breakdowns", all(r.passed for r in reports))

    print("pointwise identities")
    check("Carlitz to m = 28", all(r.ok for r in check_carlitz(28)))
    check("sqrt bound to 1e6", check_sqrt_bound(10**6).passed)

    print("exact closed form")
    sol = solve_closed_form()
    g0, g1, g2 = sol.c_field.coords()
    print(f"  c(theta) = {g0} + {g1}*theta + {g2}*theta^2, c3 = {sol.c3}, c4 = {sol.c4}")
    c1, c2, c3, c4, c5 = embed_coefficients(sol, digits=15)
    print(f"  (c1, c2, c3, c4, c5) ~ ({c1}, {c2}, {c3}, {c4}, {c5})")
    check(
        "matches the tables for m in [2, 28]",
        all(closed_form_v(m, sol) == v[m] for m in range(2, 29)),
    )

    print("asymptotics")
    with localcontext() as ctx:
        ctx.prec = 40
        c1 = embed_coefficients(sol, digits=40)[0]
        ratio = Decimal(v[30]) / (c1 * sol.lambda1.value**30)
    print(f"  V(F_30) / (c1 * lambda1^30) = {+ratio}")
    check("ratio within 1e-6 of 1", abs(ratio - 1) < Decimal("1e-6"))
    constants = exponent_report(30)
    print(f"  lambda = {constants.lam}")
    print(f"  exponent_cs = {constants.exponent_cs}")
    print(f"  exponent_main = {constants.exponent_main}")
    check("exponent_cs < exponent_main", constants.exponent_cs < constants.exponent_main)

    print("figure data")
    args.outdir.mkdir(parents=True, exist_ok=True)
    for h_max in (6765, 75025):
        path = args.outdir / f"figure_{h_max}.csv"
        with open(path, "w", newline="\n") as handle:
            write_figure_csv(h_max, handle)
        print(f"  wrote {path}")

    print(f"done, {failures} failure(s)")
    # the wall time goes to stderr, so that stdout is the same on every run
    print(f"done in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
