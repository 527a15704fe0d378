#!/usr/bin/env python3
"""Benchmark of the fibvar package, end to end and layer by layer.

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports fibvar from its src/
directory.  One client in one thread calls the package's public functions in
a closed loop: each operation starts when the previous one has returned.
Operations come in rounds (see workloads.py); rounds repeat until --seconds
would be exceeded.  Every result is checked against oracle.py.

Slot i of every round is the same kind of operation at nearly the same size.
A slot's cost is its median latency over the rounds of the run, which damps
the second-to-second swings of a shared machine; wall_s, ops_per_s,
entries_per_s, op_p50_ms and op_tail_ms are built from these slot costs.

--trace 0 reports the end-to-end metrics.  --trace 1 splits the time in
three: untraced, with per-layer spans (spans.py; self times, calls and work
counters), and with spans plus tracemalloc (peak allocation per layer).  It
reports the per-layer metrics and the overhead of the spans.  The last line of
standard output is the result as one JSON object; the lines before it list
every metric with its unit, the error rate and the run metadata.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
IMPORT_TIMER = "import time; t = time.perf_counter(); import fibvar; print(time.perf_counter() - t)"


def import_fibvar() -> None:
    """Import fibvar from this checkout's src/, never from anywhere else."""
    if not (SRC / "fibvar" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fibvar sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fibvar

    if Path(fibvar.__file__).resolve().parent != SRC / "fibvar":
        raise SystemExit(f"bench: imported fibvar from {fibvar.__file__}, not from {SRC}")


def import_time() -> float:
    """Seconds a fresh interpreter takes to import fibvar from this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


class SetupSampler:
    """Import timings spread evenly over a phase, so no single quiet or busy spell decides them."""

    def __init__(self, count: int = SETUP_SAMPLES):
        self.count = count
        self.times: list[float] = []
        import_time()  # the first import after a checkout also writes bytecode

    def between_rounds(self, fraction_done: float) -> None:
        while len(self.times) < self.count * min(fraction_done, 1.0):
            self.times.append(import_time())

    def median(self) -> float:
        self.between_rounds(1.0)
        return statistics.median(self.times)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(workload: str, seed: int, seconds: float, trace: bool, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fibvar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Runner:
    """Runs rounds of one workload and keeps what each operation took."""

    def __init__(self, workloads, workload, env):
        self.workloads = workloads  # the module: prepare, execute, check, entries
        self.workload = workload
        self.env = env
        self.tracer = None
        self.next_round = 0
        self.attempted = 0
        self.failed = 0
        self.seen_args: set = set()
        self.repeats = 0
        self.timed_ops = 0
        self._reported = 0

    def run_op(self, op, timed: bool = True) -> tuple[float, int]:
        workloads = self.workloads
        sink = workloads.prepare(op)
        tracer = self.tracer
        result = error = None
        start = time.perf_counter()
        if tracer:
            tracer.active = True
        try:
            result = workloads.execute(op, self.env, sink)
        except Exception:
            error = traceback.format_exc(limit=3)
        finally:
            if tracer:
                tracer.active = False
        latency = time.perf_counter() - start
        if tracer:
            tracer.close_op()
            if sink is not None:
                counter = "analysis.csv_bytes" if op.kind == "figure" else "cli.stdout_bytes"
                tracer.counters[counter] += sink.nbytes
        if error is None:
            try:
                error = workloads.check(op, result, sink, self.env)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self._reported < 5:
                self._reported += 1
                print(f"bench: FAILED {op.kind}{op.args}: {error}", file=sys.stderr)
        if timed:
            key = (op.kind, op.args)
            self.repeats += key in self.seen_args
            self.seen_args.add(key)
            self.timed_ops += 1
        entries = 0 if error is not None else workloads.entries(op, result)
        return latency, entries

    def phase(self, budget_s: float, sampler: SetupSampler | None = None) -> list[dict]:
        """Whole rounds until the next one would overrun budget_s; at least one."""
        rounds = []
        phase_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            ops = self.workload.round(self.next_round)
            self.next_round += 1
            latencies, entries = [0.0] * len(ops), 0
            for op in ops:
                latency, n = self.run_op(op)
                latencies[op.slot] = latency
                entries += n
            rounds.append({"latencies": latencies, "entries": entries})
            if sampler:
                sampler.between_rounds((time.perf_counter() - phase_start) / budget_s)
            now = time.perf_counter()
            if now - phase_start + (now - round_start) > budget_s:
                return rounds


def slot_costs(rounds: list[dict]) -> list[float]:
    """Each slot's median latency over the rounds."""
    return [statistics.median(lat) for lat in zip(*(r["latencies"] for r in rounds))]


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    costs = slot_costs(rounds)
    ops = len(costs)
    index = max(ops - 11, 0)  # ten slots beyond it
    wall = sum(costs)
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "entries_per_s": (statistics.mean(r["entries"] for r in rounds) / wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(costs), "ms"),
        "op_tail_ms": (1000 * sorted(costs)[index], "ms"),
    }
    notes = {"rounds": len(rounds), "ops_per_round": ops,
             "tail_percentile": round(100 * (index + 1) / ops, 2), "tail_samples_beyond": ops - index - 1}
    return metrics, notes


def per_layer(tracer, memory, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-round layer figures from the timing tracer, peaks from the memory tracer."""
    from spans import LAYERS, MEMORY_LAYERS

    n = len(traced)
    c = tracer.counters
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s")
        metrics[f"{layer}.errors"] = (tracer.errors[layer] / n, "count")

    def rate(total, layer):
        return total / tracer.self_s[layer] if tracer.self_s[layer] > 0 else 0.0

    metrics["partitions.entries"] = (c["partitions.entries"] / n, "count")
    metrics["partitions.entries_per_s"] = (rate(c["partitions.entries"], "partitions"), "1/s")
    metrics["partitions.useful_ratio"] = (
        c["partitions.returned"] / c["partitions.entries"] if c["partitions.entries"] else 0.0, "ratio")
    metrics["partitions.prefix_hit_share"] = (
        c["partitions.prefix_hits"] / c["partitions.tables"] if c["partitions.tables"] else 0.0, "share")
    for layer in sorted(MEMORY_LAYERS):
        metrics[f"{layer}.peak_alloc_mb"] = (memory.peak_alloc[layer] / 2**20, "MB")
    metrics["analysis.csv_bytes"] = (c["analysis.csv_bytes"] / n, "B")
    metrics["analysis.csv_bytes_per_s"] = (rate(c["analysis.csv_bytes"], "analysis"), "B/s")
    metrics["cli.stdout_bytes"] = (c["cli.stdout_bytes"] / n, "B")
    metrics["cli.stdout_bytes_per_s"] = (rate(c["cli.stdout_bytes"], "cli"), "B/s")
    metrics["casework.subset_sums"] = (c["casework.subset_sums"] / n, "count")
    metrics["casework.subset_sums_per_s"] = (rate(c["casework.subset_sums"], "casework"), "1/s")
    metrics["trace.overhead_s"] = (sum(slot_costs(traced)) - sum(slot_costs(untraced)), "s")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object and what the report prints."""
    import_fibvar()
    import numpy

    import oracle
    import workloads
    from fibvar import closed_form

    reference = oracle.Oracle(m_max=4200 if scale == "full" else 300)
    solution = closed_form.solve_closed_form()
    env = workloads.Env(reference, solution)
    runner = Runner(workloads, workloads.Workload(workload_name, seed, scale), env)

    # warm-up: one small round, checked but not timed
    warm = workloads.Workload(workload_name, seed, "tiny")
    for op in warm.round(0):
        runner.run_op(op, timed=False)

    notes: dict = {}
    if not trace:
        sampler = SetupSampler()
        rounds = runner.phase(seconds, sampler)
        metrics, notes = end_to_end(rounds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (sampler.median(), "s")
    else:
        from spans import Tracer

        untraced = runner.phase(seconds / 3)
        timing, memory = Tracer(), Tracer(memory=True)
        traced = _traced_phase(runner, timing, seconds / 3)
        _traced_phase(runner, memory, seconds / 3)
        metrics = per_layer(timing, memory, traced, untraced)
        notes = {"untraced_rounds": len(untraced), "traced_rounds": len(traced)}

    notes["repeat_share"] = runner.repeats / runner.timed_ops
    notes["error_rate"] = runner.failed / runner.attempted
    return {
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
        "notes": notes,
        "meta": metadata(workload_name, seed, seconds, trace, numpy.__version__),
    }


def _traced_phase(runner: Runner, tracer, budget_s: float) -> list[dict]:
    tracer.install()
    runner.tracer = tracer
    tracer.start()
    try:
        return runner.phase(budget_s)
    finally:
        tracer.stop()
        tracer.uninstall()
        runner.tracer = None


def main(argv=None, scale: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tables", "point_queries", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':32s} {report['notes']['error_rate']:.6g} share "
          f"({result['failed']} of {result['attempted']} operations)")
    print("notes " + json.dumps(report["notes"], sort_keys=True))
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
