"""The three workloads: their seeded inputs, the calls they make, and the checks.

Each workload hands out rounds: fixed-size lists of operations generated from
(workload, seed, round index) alone.  Slot i of every round has the same kind
of operation at nearly the same size, so a slot's median latency over the
rounds of a run estimates that operation's cost.  Sizes are stratified on a log scale, one slot per stratum, and the
seed moves costly sizes by a few percent only: every value depends on the
seed, the work in a round hardly does.  The program sees only an operation's
arguments; the spot positions used to check its result stay on the
benchmark's side.

Every result is compared with oracle.py, never with another output of the
same code path.
"""

import contextlib
import math
import random
import zlib
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from fibvar import analysis, casework, cli, closed_form, fibonacci, moments, partitions

import oracle

CHUNK = 1 << 18  # checks work in slices, so their memory stays small beside the program's


class Op(NamedTuple):
    kind: str
    args: tuple
    spots: tuple = ()  # benchmark-side data for the check; never passed to the program
    slot: int = 0  # same kind, nearly the same size, in every round


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (workload, seed) + parts))


def _jitter(rng: random.Random, x: float, share: float = 0.02) -> int:
    """x moved by up to +-share."""
    return int(x * (1 + share * (2 * rng.random() - 1)))


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """lo, hi and count - 2 log-spaced sizes between them, the inner ones jittered.

    The ends stay fixed, so the largest table, which sets the peak memory,
    is the same in every round.
    """
    ratio = (hi / lo) ** (1 / (count - 1))
    return [int(lo)] + [_jitter(rng, lo * ratio**i) for i in range(1, count - 1)] + [int(hi)]


def _log_uniform_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """One log-uniform draw inside each of count equal log-width strata of [lo, hi]."""
    width = math.log(hi / lo) / count
    return [int(lo * math.exp(width * (i + rng.random()))) for i in range(count)]


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """count integers spread evenly over [lo, hi]: the cost of F_m-sized work grows by phi per step."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def _spots(rng: random.Random, h: int, count: int) -> tuple[int, ...]:
    return tuple(sorted({0, h, *(rng.randint(0, h) for _ in range(count))}))


def _near_fib(rng: random.Random, h_max: int) -> tuple[int, int]:
    """(m, d) with 1 <= F_m + d <= h_max and |d| <= 40."""
    while True:
        m, d = rng.randint(5, 40), rng.randint(-40, 40)
        if 1 <= oracle.fib(m) + d <= h_max:
            return m, d


# sizes ---------------------------------------------------------------------

SCALES = {
    "full": {
        "tables": dict(strata=12, h_lo=1e4, h_hi=1e7, csv=1.5e5),
        "point_queries": dict(r=120, r_lo=1e3, r_hi=1e6, v_at=8, v_at_fib=8, m_lo=10, m_hi=27,
                              zeckendorf=16, digits=30, closed_form=8, cf_hi=4000, repeats=40),
        "verify": dict(lemma_lo=(7, 10), lemma_hi=(25, 29, 33), cases=(7, 21), carlitz=(22, 26, 30),
                       sqrt=(10**4, 10**5, 10**6), precision=(150, 250, 350)),
    },
    "tiny": {
        "tables": dict(strata=3, h_lo=1e2, h_hi=1e4, csv=600),
        "point_queries": dict(r=10, r_lo=10, r_hi=1e3, v_at=2, v_at_fib=2, m_lo=8, m_hi=14,
                              zeckendorf=5, digits=30, closed_form=3, cf_hi=200, repeats=3),
        "verify": dict(lemma_lo=(7, 8), lemma_hi=(12, 15), cases=(7, 10), carlitz=(10, 14),
                       sqrt=(100, 1000), precision=(20, 30)),
    },
}


class Workload:
    """Seeded rounds of operations, in the order they run."""

    def __init__(self, name: str, seed: int, scale: str = "full"):
        self.name = name
        self.seed = seed
        self.size = SCALES[scale][name]
        # point_queries: the slots whose arguments are asked again later in each round
        n_fresh = len(getattr(self, f"_{name}")(_rng(name, seed, "layout")))
        self._sources = sorted(_rng(name, seed, "repeats").sample(range(n_fresh), self.size.get("repeats", 0)))

    def round(self, index: int) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        fresh = [op._replace(slot=i) for i, op in enumerate(getattr(self, f"_{self.name}")(rng))]
        order = fresh[:]
        if self.name != "tables":
            # tables keep their slot order: the heap one table leaves behind shapes the
            # next one's footprint, so a seeded order would make peak RSS depend on the seed
            rng.shuffle(order)
        for j, source in enumerate(self._sources):
            after = order.index(fresh[source]) + 1
            order.insert(rng.randint(after, len(order)), fresh[source]._replace(slot=len(fresh) + j))
        return order

    def _tables(self, rng) -> list[Op]:
        s = self.size
        ops = []
        for kind in ("r_table", "moment_table"):
            for h in _log_strata(rng, s["h_lo"], s["h_hi"], s["strata"]):
                ops.append(Op(kind, (h,), _spots(rng, h, 10)))
        for kind in ("figure", "cli_table", "cli_moments"):
            h = _jitter(rng, s["csv"])
            if kind == "figure":
                ops.append(Op(kind, (h,), tuple(_near_fib(rng, h) for _ in range(6))))
            else:
                ops.append(Op(kind, (h,), _spots(rng, h, 10)))
        return ops

    def _point_queries(self, rng) -> list[Op]:
        s = self.size
        ops = [Op("r", (n,)) for n in _log_uniform_strata(rng, s["r_lo"], s["r_hi"], s["r"])]
        for m in _spread(s["m_lo"], s["m_hi"], s["v_at"]):
            d = rng.randint(max(-40, 1 - oracle.fib(m)), 40)
            ops.append(Op("v_at", (oracle.fib(m) + d,), (m, d)))
        ops += [Op("v_at_fib", (m,)) for m in _spread(s["m_lo"], s["m_hi"], s["v_at_fib"])]
        for i in range(s["zeckendorf"]):
            digits = 1 + i * s["digits"] // s["zeckendorf"]
            ops.append(Op("zeckendorf", (rng.randrange(10 ** (digits - 1), 10**digits),)))
        ops += [Op("closed_form_v", (m,)) for m in _log_uniform_strata(rng, 10, s["cf_hi"], s["closed_form"])]
        return ops

    def _verify(self, rng) -> list[Op]:
        s = self.size
        cases_lo, cases_hi = s["cases"]
        ops = [Op("verify_lemma", (rng.randint(*s["lemma_lo"]), m_hi)) for m_hi in s["lemma_hi"]]
        ops += [Op("check_carlitz", (m,)) for m in s["carlitz"]]
        ops += [Op("check_sqrt_bound", (_jitter(rng, h),)) for h in s["sqrt"]]
        ops += [Op("verify_cases", (m, cases_hi + 1)) for m in range(cases_lo, cases_hi + 1)]
        for p in s["precision"]:
            ops.append(Op("solve_closed_form", (p + rng.randrange(10),)))
            ops.append(Op("exponent_report", (p + rng.randrange(10),)))
        return ops


# output sinks ----------------------------------------------------------------


class _ByteSide:
    """sys.stdout.buffer stand-in, for a writer that emits bytes."""

    def __init__(self, sink: "CsvSink"):
        self._sink = sink

    def write(self, data: bytes) -> int:
        self._sink.feed(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class CsvSink:
    """In-memory stdout: counts bytes and lines, hashes them, keeps chosen lines.

    Works whatever the write granularity, so a writer that emits a whole
    table at once is measured like one that prints row by row.
    """

    encoding = "utf-8"

    def __init__(self, keep_lines=()):
        self.nbytes = 0
        self.lines = 0
        self.crc = 0
        self._keep = sorted(keep_lines)
        self.kept: dict[int, str] = {}
        self._partial = b""
        self.buffer = _ByteSide(self)

    def write(self, text: str) -> int:
        self.feed(text.encode())
        return len(text)

    def feed(self, data: bytes) -> None:
        self.nbytes += len(data)
        self.crc = zlib.crc32(data, self.crc)
        newlines = data.count(b"\n")
        if self._keep:
            first = bisect_left(self._keep, self.lines)
            if first < len(self._keep) and self._keep[first] < self.lines + newlines:
                parts = (self._partial + data).split(b"\n")
                for idx in self._keep[first:]:
                    if idx >= self.lines + newlines:
                        break
                    self.kept[idx] = parts[idx - self.lines].decode()
                self._partial = parts[-1]
            elif newlines:
                self._partial = data[data.rfind(b"\n") + 1 :]
            else:
                self._partial += data
        self.lines += newlines

    def flush(self) -> None:
        pass


# calls -----------------------------------------------------------------------


class Env:
    """What the calls and checks share: the reference values and a solution."""

    def __init__(self, reference: oracle.Oracle, solution):
        self.oracle = reference
        self.solution = solution


def prepare(op: Op):
    """Objects the call needs that must exist before the clock starts."""
    if op.kind == "figure":
        h = op.args[0]
        return CsvSink({0, 1, h, *(oracle.fib(m) + d for m, d in op.spots), *(f for _, f in fib_points(h))})
    if op.kind.startswith("cli_"):
        return CsvSink()
    return None


def execute(op: Op, env: Env, sink):
    """The timed part of one operation: public fibvar calls only."""
    k, a = op.kind, op.args
    if k == "r_table":
        return partitions.r_table(*a)
    if k == "moment_table":
        return moments.moment_table(*a)
    if k == "figure":
        return analysis.write_figure_csv(a[0], sink)
    if k in ("cli_table", "cli_moments"):
        with contextlib.redirect_stdout(sink):
            return cli.main([k[4:], "--h-max", str(a[0])])
    if k == "r":
        return partitions.r(*a)
    if k == "v_at":
        return moments.moment_table(a[0]).v_at(a[0])
    if k == "v_at_fib":
        return moments.v_at_fib(*a)
    if k == "zeckendorf":
        return fibonacci.zeckendorf(*a)
    if k == "closed_form_v":
        return closed_form.closed_form_v(a[0], env.solution)
    if k == "verify_lemma":
        return moments.verify_lemma(*a)
    if k == "verify_cases":
        return casework.verify_cases(a[0], budget=a[1])
    if k == "check_carlitz":
        return partitions.check_carlitz(*a)
    if k == "check_sqrt_bound":
        return partitions.check_sqrt_bound(*a)
    if k == "solve_closed_form":
        return closed_form.solve_closed_form(*a)
    if k == "exponent_report":
        return analysis.exponent_report(*a)
    raise ValueError(f"unknown operation {k}")


def entries(op: Op, result) -> int:
    """Values the operation handed back: table entries, CSV rows, answers, check rows."""
    k = op.kind
    if k in ("r_table", "moment_table", "cli_table", "cli_moments"):
        return op.args[0] + 1
    if k == "figure":
        return op.args[0]
    if k in ("verify_lemma", "check_carlitz"):
        return len(result)
    if k == "verify_cases":
        return len(result.checks)
    if k == "check_sqrt_bound":
        return 1 + len(result.equality_positions)
    if k == "solve_closed_form":
        return 8  # five coefficients, three roots
    if k == "exponent_report":
        return 4
    return 1


# checks ----------------------------------------------------------------------


def fib_points(h: int) -> list[tuple[int, int]]:
    """(m, F_m) for every m >= 2 with F_m <= h."""
    return [(m, oracle.fib(m)) for m in range(2, 400) if oracle.fib(m) <= h]


def _check_counts(r_chunks, h: int, spots) -> str | None:
    """R(0..h), given slice by slice, against the bound, Carlitz and spot values."""
    equality = []
    seen = {}
    want = set(spots) | {f for _, f in fib_points(h)}
    for lo, r in r_chunks:
        n_plus_1 = np.arange(lo + 1, lo + len(r) + 1, dtype=np.int64)
        squares = r * r
        if r.min() < 1 or np.any(squares > n_plus_1):
            return f"R(n) outside [1, sqrt(n+1)] in [{lo}, {lo + len(r)})"
        equality += (np.flatnonzero(squares == n_plus_1) + lo).tolist()
        for n in want:
            if lo <= n < lo + len(r):
                seen[n] = int(r[n - lo])
    if len(seen) != len(want):
        return "table shorter than its range"
    if equality != oracle.sqrt_equality_positions(h):
        return f"R(n)^2 = n+1 at {equality[:8]}..., expected exactly n = F_k^2 - 1"
    for m, f in fib_points(h):
        if seen[f] != m // 2:
            return f"Carlitz: R(F_{m}) = {seen[f]}, expected {m // 2}"
    for n in spots:
        if seen[n] != oracle.partition_count(n):
            return f"R({n}) = {seen[n]}, expected {oracle.partition_count(n)}"
    return None


def _count_chunks(r: np.ndarray):
    for lo in range(0, len(r), CHUNK):
        yield lo, r[lo : lo + CHUNK]


def _moment_chunks(a: np.ndarray, v: np.ndarray, problems: list):
    """R recovered as differences of A; checks V's differences are R^2 on the way."""
    for lo in range(0, len(a), CHUNK):
        hi = min(lo + CHUNK, len(a))
        if lo == 0:
            r = np.concatenate(([a[0]], np.diff(a[:hi])))
            dv = np.concatenate(([v[0]], np.diff(v[:hi])))
        else:
            r = a[lo:hi] - a[lo - 1 : hi - 1]
            dv = v[lo:hi] - v[lo - 1 : hi - 1]
        if not np.array_equal(dv, r * r):
            problems.append(f"V(n) - V(n-1) != R(n)^2 in [{lo}, {hi})")
        yield lo, r


def _check_moments(a: np.ndarray, v: np.ndarray, h: int, spots, ref: oracle.Oracle) -> str | None:
    if len(a) != h + 1 or len(v) != h + 1:
        return f"moment table has {len(a)}/{len(v)} entries, expected {h + 1}"
    problems: list[str] = []
    problem = _check_counts(_moment_chunks(a, v, problems), h, spots)
    if problems or problem:
        return (problems + [problem])[0]
    for m, f in fib_points(h):
        if int(v[f]) != ref.v_fib[m]:
            return f"V(F_{m}) = {int(v[f])}, closed form gives {ref.v_fib[m]}"
    return None


def _expected_csv(kind: str, h: int, spots) -> tuple[tuple[int, int] | None, str | None]:
    """Length and CRC-32 of the text the CLI must print, from a table that passed the checks."""
    r = partitions.r_table(h).r
    problem = _check_counts(_count_chunks(r), h, spots)
    if problem:
        return None, problem
    if kind == "cli_table":
        head, columns = "n,R\n", lambda lo, x: (range(lo, lo + len(x)), x.tolist())
    else:
        a, v = np.cumsum(r), np.cumsum(r * r)
        head = "n,R,A,V\n"
        columns = lambda lo, x: (range(lo, lo + len(x)), x.tolist(),
                                 a[lo : lo + len(x)].tolist(), v[lo : lo + len(x)].tolist())
    length, crc = len(head), zlib.crc32(head.encode())
    for lo, x in _count_chunks(r):
        chunk = "".join(",".join(map(str, row)) + "\n" for row in zip(*columns(lo, x))).encode()
        length, crc = length + len(chunk), zlib.crc32(chunk, crc)
    return (length, crc), None


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * abs(y)


def _check_figure(sink: CsvSink, h: int, spots, ref: oracle.Oracle) -> str | None:
    if sink.lines != h + 1:
        return f"figure CSV has {sink.lines} lines, expected {h + 1}"
    if sink.kept.get(0) != analysis.CSV_HEADER:
        return f"figure header {sink.kept.get(0)!r}"
    constants = ref.constants(30)
    e_cs, e_main = float(constants["exponent_cs"]), float(constants["exponent_main"])
    expected_v = {oracle.fib(m) + d: ref.v_near_fib(m, d) for m, d in spots}
    expected_v.update({f: ref.v_fib[m] for m, f in fib_points(h)})
    for row_h, v in expected_v.items():
        row = sink.kept.get(row_h)
        if row is None:
            return f"figure row H={row_h} missing"
        fields = row.split(",")
        if len(fields) != 4 or int(fields[0]) != row_h or int(fields[1]) != v:
            return f"figure row {row!r}, expected H={row_h} V={v}"
        log_h = math.log(row_h)
        if not (_close(float(fields[2]), v * math.exp(-e_cs * log_h))
                and _close(float(fields[3]), v * math.exp(-e_main * log_h))):
            return f"figure row {row!r}: normalised columns off"
    return None


def _case_expectations(m: int, ref: oracle.Oracle) -> dict[str, int]:
    v = ref.v_fib
    def r(k):
        return oracle.partition_count(oracle.fib(k))
    def w(k):
        return v[k - 3] - r(k - 3) - r(k - 5) - v[k - 5]
    total = v[m] - v[m - 1]
    return {
        "case1": 1,
        "case2": v[m - 2] - 1,
        "case3": v[m - 1] - 4 * v[m - 3] + 2 * v[m - 5] - 2 * r(m - 1) + 2 * r(m - 3) + 2 * r(m - 5) + 1,
        "case4": 2 * r(m - 2),
        "case5": 2 * (w(m + 1) - r(m - 3)),
        "case_sum": total,
        "window_total": total,
        "w": w(m),
    }


def _check_constants(result: dict, digits: int, ref: oracle.Oracle) -> str | None:
    constants = ref.constants(digits)
    tolerance = Decimal(10) ** (3 - digits)
    for name, value in result.items():
        if abs(value - constants[name]) > tolerance:
            return f"{name} = {value}, expected {constants[name]}"
        if name in oracle.PAPER_PREFIXES and not str(value).startswith(oracle.PAPER_PREFIXES[name]):
            return f"{name} = {value} does not start {oracle.PAPER_PREFIXES[name]}"
    return None


def _check_solution(sol, digits: int, ref: oracle.Oracle) -> str | None:
    if sol.c_field.coords() != oracle.C_THETA or (sol.c3, sol.c4) != (oracle.C3, oracle.C4):
        return f"coefficients {sol.c_field.coords()}, c3={sol.c3}, c4={sol.c4}"
    constants = ref.constants(digits)
    slack = Fraction(1, 10 ** (digits + 8))
    for name in ("lambda1", "lambda5", "lambda2"):
        root = getattr(sol, name)
        exact = Fraction(constants[name])
        if not (root.low - slack <= exact <= root.high + slack) or root.high - root.low > Fraction(1, 10**digits):
            return f"{name} bracket [{float(root.low)}, {float(root.high)}] misses {constants[name]}"
    if not str(sol.lambda1.value).startswith(oracle.PAPER_PREFIXES["lambda1"]):
        return f"lambda1 = {sol.lambda1.value}"
    return None


def check(op: Op, result, sink, env: Env) -> str | None:
    """None when the result is right, else what is wrong with it."""
    k, a, ref = op.kind, op.args, env.oracle
    if k == "r_table":
        if result.h_max != a[0] or len(result.r) != a[0] + 1:
            return f"table covers {result.h_max}, asked {a[0]}"
        return _check_counts(_count_chunks(result.r), a[0], op.spots)
    if k == "moment_table":
        return _check_moments(result.a, result.v, a[0], op.spots, ref)
    if k == "figure":
        return _check_figure(sink, a[0], op.spots, ref)
    if k in ("cli_table", "cli_moments"):
        if result != 0:
            return f"exit code {result}"
        expected, problem = _expected_csv(k, a[0], op.spots)
        if problem:
            return problem
        if sink.lines != a[0] + 2 or (sink.nbytes, sink.crc) != expected:
            return f"CSV of {sink.lines} lines / {sink.nbytes} bytes differs from the expected table"
        return None
    if k == "r":
        want = oracle.partition_count(a[0])
    elif k == "v_at":
        want = ref.v_near_fib(*op.spots)
    elif k == "v_at_fib":
        want = ref.v_fib[a[0]]
    elif k == "closed_form_v":
        want = Fraction(ref.v_fib[a[0]])
    elif k == "zeckendorf":
        return None if oracle.zeckendorf_ok(a[0], result.indices) else f"Zeckendorf {result.indices}"
    elif k == "verify_lemma":
        m_lo, m_hi = a
        if [row.m for row in result] != list(range(m_lo, m_hi + 1)):
            return "lemma rows do not cover the range"
        for row in result:
            if not row.equal or row.lhs != ref.v_fib[row.m] or row.rhs != ref.v_fib[row.m]:
                return f"lemma row {row}, V(F_{row.m}) = {ref.v_fib[row.m]}"
        return None
    elif k == "verify_cases":
        want = _case_expectations(a[0], ref)
        got = {c.name: c.actual for c in result.checks}
        if not result.passed or not all(c.ok for c in result.checks) or got != want:
            return f"cases at m={a[0]}: {got}, expected {want}"
        return None
    elif k == "check_carlitz":
        rows = [(row.m, row.r_fib, row.ok) for row in result]
        if rows != [(m, m // 2, True) for m in range(2, a[0] + 1)]:
            return "Carlitz rows wrong"
        return None
    elif k == "check_sqrt_bound":
        if not result.passed or result.equality_positions != oracle.sqrt_equality_positions(a[0]):
            return f"sqrt bound {result}"
        return None
    elif k == "solve_closed_form":
        return _check_solution(result, a[0], ref)
    elif k == "exponent_report":
        got = {"phi": result.phi, "lam": result.lam,
               "exponent_main": result.exponent_main, "exponent_cs": result.exponent_cs}
        return _check_constants(got, a[0], ref)
    else:
        return f"no check for {k}"
    return None if result == want else f"got {result}, expected {want}"
