#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 bench/selftest.py

Checks that
- every metric BENCHMARK.json names is printed, by name and with its unit,
  on every workload, untraced (end-to-end) and traced (per layer), and that
  the last line is the result object with correct = true;
- the same seed gives the same inputs and another seed other inputs;
- a corrupted result from the program raises the error rate on each workload.
Exits 1 and lists the problems if any check fails.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run

SEED = 3


def printed_run(workload: str, trace: int) -> tuple[dict, dict[str, str]]:
    """Run at tiny sizes; return the result line and the unit printed per metric."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.3", "--trace", str(trace)],
                 scale="tiny")
    lines = out.getvalue().splitlines()
    units = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] not in ("notes", "meta"):
            units[fields[0]] = fields[2]
    return json.loads(lines[-1]), units


def check_metrics(spec: dict, problems: list[str]) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, units = printed_run(workload, trace)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            if set(result["metrics"]) != set(wanted):
                problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(wanted))} differ")
            for name, unit in wanted.items():
                metric = result["metrics"].get(name, {})
                if metric.get("unit") != unit or units.get(name) != unit:
                    problems.append(f"{where}: {name} printed as {units.get(name)}, {metric}, want {unit}")
                if not isinstance(metric.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
        if "error_rate" not in units:
            problems.append(f"{workload}: error_rate not printed")


def check_seeds(spec: dict, problems: list[str]) -> None:
    import workloads

    for workload in (w["name"] for w in spec["workloads"]):
        def rounds(seed):
            gen = workloads.Workload(workload, seed)
            return [gen.round(i) for i in range(3)]

        if rounds(SEED) != rounds(SEED):
            problems.append(f"{workload}: one seed gave two different inputs")
        if rounds(SEED) == rounds(SEED + 1):
            problems.append(f"{workload}: two seeds gave the same inputs")


def _corrupt_table(fn):
    def corrupted(*args, **kwargs):
        table = fn(*args, **kwargs)
        r = table.r.copy()
        r[-1] += 1
        return dataclasses.replace(table, r=r)
    return corrupted


def _corrupt_cases(fn):
    def corrupted(*args, **kwargs):
        breakdown = fn(*args, **kwargs)
        return dataclasses.replace(breakdown, case1=breakdown.case1 + 1)
    return corrupted


def check_corruption(problems: list[str]) -> None:
    from fibvar import casework, partitions

    original_r = partitions.r
    patches = {
        "tables": (partitions, "r_table", _corrupt_table(partitions.r_table)),
        "point_queries": (partitions, "r", lambda n, *a, **k: original_r(n, *a, **k) + 1),
        "verify": (casework, "case_breakdown", _corrupt_cases(casework.case_breakdown)),
    }
    for workload, (module, name, corrupted) in patches.items():
        original = getattr(module, name)
        setattr(module, name, corrupted)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                result, _ = printed_run(workload, 0)
        finally:
            setattr(module, name, original)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: corrupted {module.__name__}.{name} went unnoticed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_fibvar()
    problems: list[str] = []
    check_metrics(spec, problems)
    check_seeds(spec, problems)
    check_corruption(problems)
    for problem in problems:
        print("selftest: " + problem)
    print(f"selftest: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
