"""Fibonacci partition counts, their second moment, and exact variance asymptotics."""

from .analysis import AsymptoticConstants, exponent_report, write_figure_csv
from .casework import (
    CaseBreakdown,
    CaseReport,
    case_breakdown,
    verify_cases,
    w_bruteforce,
)
from .closed_form import (
    ClosedFormSolution,
    build_trace_system,
    closed_form_v,
    embed_coefficients,
    particular_part,
    solve_closed_form,
)
from .errors import BudgetError
from .exact import (
    CubicElement,
    IsolatedRoot,
    SingularMatrixError,
    isolate_real_roots,
    power_trace,
    solve_linear_system,
)
from .fibonacci import ZeckendorfRepr, distinct_fib_upto, fib, zeckendorf
from .moments import (
    VARIANCE_RECURRENCE,
    FibMomentSeries,
    MomentTable,
    RecurrenceSpec,
    fib_moment_series,
    moment_table,
    v_at_fib,
    verify_lemma,
    w_closed_form,
)
from .partitions import CountTable, check_carlitz, check_sqrt_bound, r, r_table

__version__ = "0.1.0"

__all__ = [
    "AsymptoticConstants",
    "BudgetError",
    "CaseBreakdown",
    "CaseReport",
    "ClosedFormSolution",
    "CountTable",
    "CubicElement",
    "FibMomentSeries",
    "IsolatedRoot",
    "MomentTable",
    "RecurrenceSpec",
    "SingularMatrixError",
    "VARIANCE_RECURRENCE",
    "ZeckendorfRepr",
    "build_trace_system",
    "case_breakdown",
    "check_carlitz",
    "check_sqrt_bound",
    "closed_form_v",
    "distinct_fib_upto",
    "embed_coefficients",
    "exponent_report",
    "fib",
    "fib_moment_series",
    "isolate_real_roots",
    "moment_table",
    "particular_part",
    "power_trace",
    "r",
    "r_table",
    "solve_closed_form",
    "solve_linear_system",
    "v_at_fib",
    "verify_cases",
    "verify_lemma",
    "w_bruteforce",
    "w_closed_form",
    "write_figure_csv",
    "zeckendorf",
]
