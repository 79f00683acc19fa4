"""Benchmark harness for linkbound: seeded, closed-loop scenario workloads.

Run from the repository root:

    python3 bench/run.py --workload bounds-discretized --seed 1 --seconds 40 --trace 0

One client in one process sends scenario requests back to back. A request
is ``linkbound.cli.run_scenario`` on one generated scenario followed by
``rows_to_csv`` of its rows: what ``linkbound --scenario`` does, minus
file input and output. The program is imported from ``src/`` of the
checkout that holds this file.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed prefix of the plan twice, untraced and then
with every layer wrapped by ``tracing.Tracer``, and reports per-layer
counts and self times plus the tracing overhead. Both modes check the
outputs (see ``check_rows`` and ``post_checks``). Human-readable lines go
first; the last line of standard output is one JSON object. The exit
code is 0 when every check passed, 1 when one failed and 2 when the
program cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# A run measures whole plan cycles and at least MIN_CYCLES of them, unless
# HARD_STOP times --seconds have passed (a host far slower than usual). The
# tail is read at a fixed rank per cycle: the TAIL_PER_CYCLE slowest requests
# of every completed cycle lie beyond it, at least ten requests in five cycles.
MIN_CYCLES = 5
HARD_STOP = 2.0
TAIL_PER_CYCLE = 2
# Requests 0 and 1 of every run are re-computed in the other discretization
# mode; request 0 is also repeated for a byte-identical table.
CROSS_CHECKED = 2
TRACED_CYCLES = 2

PROBE = """\
import json, sys, time
import linkbound.cli as cli
scenarios = [cli.Scenario.from_dict(doc) for doc in json.load(sys.stdin)]
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def load_program():
    """Import linkbound.cli from this checkout's src/, or exit with code 2."""
    if not (SRC / "linkbound" / "__init__.py").is_file():
        print(f"error: no linkbound sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import linkbound.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "linkbound").resolve():
        print(f"error: imported linkbound from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def environment() -> dict:
    llc = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    best = -1
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best:
            best, llc = level, f"L{level} {size}"
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "llc": llc,
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_seconds(plan_text: str) -> float:
    """Fresh interpreter: import linkbound and parse the plan, up to the first request."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", PROBE], input=plan_text, text=True,
                          capture_output=True, cwd=ROOT, env=env, timeout=120, check=True)
    return float(proc.stdout) - start


@dataclass
class Outcome:
    index: int
    latency_s: float
    rows: list | None = None
    csv: str | None = None
    problems: list = field(default_factory=list)


def execute(cli, index: int, scenario) -> Outcome:
    """One request, timed; an exception is recorded as a failed request."""
    start = time.perf_counter()
    try:
        rows = cli.run_scenario(scenario)
        text = cli.rows_to_csv(rows, scenario)
    except Exception:  # the benchmark keeps running and reports the failure
        outcome = Outcome(index, time.perf_counter() - start)
        outcome.problems.append("raised:\n" + traceback.format_exc())
        return outcome
    outcome = Outcome(index, time.perf_counter() - start, rows, text)
    outcome.problems.extend(check_rows(scenario, rows))
    return outcome


def check_rows(scenario, rows) -> list[str]:
    """Every stable row is finite; simulated tails respect the bound.

    Where epsilon * replications >= 10, the empirical violation at the
    reported bound may exceed epsilon by at most its Wilson half-width.
    """
    problems = []
    for row in rows:
        if row.stable and (row.bound is None or not math.isfinite(row.bound)):
            problems.append(f"non-finite bound on stable row {row}")
        if (row.violation is not None and row.epsilon * scenario.replications >= 10
                and row.violation > row.epsilon + row.violation_halfwidth):
            problems.append(f"violation {row.violation} above epsilon {row.epsilon} "
                            f"+ {row.violation_halfwidth} in row {row}")
    return problems


def cross_mode_problems(cli, scenario, rows) -> list[str]:
    """The discretized bound is never below the exact-mode bound."""
    if scenario.delta == "limit":
        exact_rows = rows
        disc_rows = cli.run_scenario(replace(scenario, delta=0.01, simulate=False))
    else:
        disc_rows = rows
        exact_rows = cli.run_scenario(replace(scenario, delta="limit", simulate=False))
    problems = []
    for disc, exact in zip(disc_rows, exact_rows, strict=True):
        if disc.stable and not (exact.stable and disc.bound >= exact.bound):
            problems.append(f"discretized row {disc} below exact row {exact}")
    return problems


def post_checks(cli, scenarios, outcomes) -> None:
    """Checks run after timing: cross-mode dominance and a byte-identical repeat."""
    for outcome in outcomes[:CROSS_CHECKED]:
        if outcome.rows is None:
            continue
        scenario = scenarios[outcome.index]
        try:
            outcome.problems.extend(cross_mode_problems(cli, scenario, outcome.rows))
            if outcome.index == 0 and cli.rows_to_csv(cli.run_scenario(scenario),
                                                      scenario) != outcome.csv:
                outcome.problems.append("repeated request gave a different CSV table")
        except Exception:  # a check that raises fails the request it checks
            outcome.problems.append("check raised:\n" + traceback.format_exc())


def simulated_replications(scenario, rows) -> int:
    points = {row.sweep_value for row in rows if row.violation is not None}
    return len(points) * scenario.replications


def tail_latency(latencies: list[float], cycles: int) -> tuple[float, int]:
    """(value, requests beyond it) at the fixed per-cycle tail rank.

    The TAIL_PER_CYCLE * cycles slowest requests lie beyond the value, so
    it is the same percentile of the same cycle mix however many cycles a
    run completes.
    """
    ordered = sorted(latencies)
    beyond = TAIL_PER_CYCLE * cycles
    return ordered[len(ordered) - beyond - 1], beyond


def report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.problems]
    for outcome in failed:
        for problem in outcome.problems:
            print(f"FAILED request {outcome.index}: {problem}", file=sys.stderr)
    return len(failed)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(cli, scenarios, plan_text, cycle, seconds, workload) -> tuple[dict, int, int]:
    """Closed loop over whole plan cycles, for about ``seconds`` seconds.

    The loop stops at the cycle boundary nearest the deadline, but not
    before MIN_CYCLES cycles unless HARD_STOP * seconds have passed, so
    every run measures the same request mix and the run time stays bounded.
    A set-up probe runs before each cycle, so the probes spread over the
    run as the requests do.
    """
    setups, outcomes = [], []
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + HARD_STOP * seconds
    while True:
        setups.append(setup_seconds(plan_text))
        cycle_start = time.perf_counter()
        for _ in range(cycle):
            index = len(outcomes)
            outcomes.append(execute(cli, index, scenarios[index % len(scenarios)]))
        now = time.perf_counter()
        if now >= hard_stop or (len(setups) >= MIN_CYCLES
                                and now + (now - cycle_start) / 2 >= deadline):
            break
    cycles = len(setups)
    # Read before the checks, which build tables the workload itself may not.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    post_checks(cli, scenarios, outcomes)
    failed = report_failures(outcomes)

    latencies = [o.latency_s for o in outcomes]
    busy = sum(latencies)
    rows = sum(len(o.rows) for o in outcomes if o.rows is not None)
    reps = sum(simulated_replications(scenarios[o.index % len(scenarios)], o.rows)
               for o in outcomes if o.rows is not None)
    tail, beyond = tail_latency(latencies, cycles)
    n = len(outcomes)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "request_p50_s": metric(statistics.median(latencies), "s"),
        "request_tail_s": metric(tail, "s"),
        "rows_per_s": metric(rows / busy, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(f"setup probes: {', '.join(f'{s:.4f}' for s in setups)} s "
          f"(median of {cycles} fresh interpreters, one before each cycle)")
    print(f"requests: {n} in {cycles} cycles of {cycle}, {busy:.3f} s of request time; "
          f"tail is p{100.0 * (n - beyond) / n:.1f} of {n} requests ({beyond} beyond it)")
    for name, entry in metrics.items():
        print(f"{name:16s} {entry['value']:.6g} {entry['unit']}")
    if workload == "mc-validation":
        print(f"{'reps_per_s':16s} {reps / busy:.6g} 1/s ({reps} replications)")
    print(f"{'failed_frac':16s} {failed / n:.6g} ({failed} of {n})")
    return metrics, n, failed


def run_traced(cli, scenarios, cycle, workload, seed) -> tuple[dict, int, int]:
    from tracing import Tracer

    prefix = scenarios[:cycle * TRACED_CYCLES]
    plain = [execute(cli, i, sc) for i, sc in enumerate(prefix)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [execute(cli, i, sc) for i, sc in enumerate(prefix)]
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if a.csv != b.csv:
            b.problems.append("traced request gave a different CSV table")
    post_checks(cli, scenarios, plain)
    failed = report_failures(plain + traced)

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(span_file)
    plain_s = sum(o.latency_s for o in plain)
    traced_s = sum(o.latency_s for o in traced)
    metrics = layer_metrics(tracer.summary(), traced_s)
    metrics["trace.overhead"] = metric(traced_s / plain_s, "ratio")
    print(f"traced {len(prefix)} requests: {traced_s:.3f} s traced, {plain_s:.3f} s "
          f"untraced; {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    return metrics, len(plain) + len(traced), failed


def layer_metrics(summary: dict, request_s: float) -> dict:
    spans, routes = summary["spans"], summary["routes"]

    def get(name, key="count"):
        entry = spans.get(name)
        return 0 if entry is None else entry[key]

    def extra(name, position=None):
        value = get(name, "extra") or 0
        if position is not None:
            value = value[position] if value else 0
        return value

    def ratio(a, b):
        return a / b if b else 0.0

    factor_calls = get("service.factor")
    misses = get("service.compute")
    bounds = get("bounds.backlog_bound") + get("bounds.delay_bound")
    reps = get("simulator.run_replication")
    count, seconds = "count", "s"
    return {
        "channel.snr_cdf.calls": metric(get("channel.snr_cdf"), count),
        "channel.snr_cdf.points": metric(extra("channel.snr_cdf"), count),
        "channel.snr_cdf.self_s": metric(get("channel.snr_cdf", "self_s"), seconds),
        "channel.sample_snr.draws": metric(extra("channel.sample_snr"), count),
        "channel.sample_snr.self_s": metric(get("channel.sample_snr", "self_s"), seconds),
        "channel.capacity.self_s": metric(get("channel.capacity", "self_s"), seconds),
        "arrival.generate_arrivals.self_s":
            metric(get("arrival.generate_arrivals", "self_s"), seconds),
        "inverse_moment.table.builds": metric(get("inverse_moment.table.build"), count),
        "inverse_moment.table.cells": metric(extra("inverse_moment.table.build", 0), count),
        "inverse_moment.table.blocks": metric(extra("inverse_moment.table.build", 1), count),
        "inverse_moment.table.build_s":
            metric(get("inverse_moment.table.build", "total_s"), seconds),
        "inverse_moment.table.bound_calls": metric(get("inverse_moment.table.bound"), count),
        "inverse_moment.truncation_point.calls":
            metric(get("inverse_moment.truncation_point"), count),
        "inverse_moment.truncation_point.self_s":
            metric(get("inverse_moment.truncation_point", "self_s"), seconds),
        "inverse_moment.grid_bound.calls": metric(get("inverse_moment.grid_bound"), count),
        "inverse_moment.grid_bound.self_s":
            metric(get("inverse_moment.grid_bound", "self_s"), seconds),
        "inverse_moment.exact.calls": metric(get("inverse_moment.exact"), count),
        "inverse_moment.exact.self_s": metric(get("inverse_moment.exact", "self_s"), seconds),
        "service.factor.calls": metric(factor_calls, count),
        "service.factor.misses": metric(misses, count),
        "service.factor.hit_ratio": metric(ratio(factor_calls - misses, factor_calls), "ratio"),
        "service.factor.self_s": metric(sum(get(n, "self_s") for n in (
            "service.factor", "service.factor_many", "service.compute")), seconds),
        **{f"service.route.{route}": metric(routes.get(route, 0), count)
           for route in ("quadratic", "table", "direct", "exact")},
        "bounds.stability_region.calls": metric(get("bounds.stability_region"), count),
        "bounds.stability_region.self_s":
            metric(get("bounds.stability_region", "self_s"), seconds),
        "bounds.backlog_bound.self_s": metric(get("bounds.backlog_bound", "self_s"), seconds),
        "bounds.delay_bound.self_s": metric(get("bounds.delay_bound", "self_s"), seconds),
        "bounds.factor_calls_per_bound": metric(ratio(factor_calls, bounds), "ratio"),
        "simulator.replications": metric(reps, count),
        "simulator.replication_rng.self_s":
            metric(get("simulator.replication_rng", "self_s"), seconds),
        "simulator.run_replication.self_s":
            metric(get("simulator.run_replication", "self_s"), seconds),
        "simulator.draws_per_replication":
            metric(ratio(extra("channel.sample_snr"), reps), "ratio"),
        "simulator.censored_frac": metric(ratio(extra("simulator.run_replication"), reps),
                                          "ratio"),
        "cli.points": metric(get("cli.point"), count),
        "cli.run_scenario.self_s": metric(get("cli.run_scenario", "self_s"), seconds),
        "cli.emit.self_s": metric(get("cli.emit", "self_s"), seconds),
        "cli.point_concurrency": metric(ratio(get("cli.point", "total_s"), request_s),
                                        "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    plan = workloads.plan_for(args.workload, args.seed)
    scenarios = [cli.Scenario.from_dict(doc) for doc in plan]
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    cycle = len(plan) // workloads.PLAN_CYCLES
    if args.trace:
        metrics, attempted, failed = run_traced(cli, scenarios, cycle, args.workload,
                                                args.seed)
    else:
        metrics, attempted, failed = run_timed(cli, scenarios, json.dumps(plan), cycle,
                                               args.seconds, args.workload)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
