"""The odoshift benchmark.

    python3 bench/run.py --workload words|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One closed loop in one process: one op at a time, and at most one child
process at a time.  The timed phase runs passes, each a fixed list of
seeded ops, for ``--seconds``; every metric is a statistic of passes or
ops, so a run's length does not change what it measures.  Timing uses
in-process clocks, ``getrusage`` and ``wait4``.  Op, pass and setup times
are scaled to one reference speed by the timings of a reference kernel
taken between ops (``reference.py``); each run prints the unscaled
medians too.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` it holds the per-layer metrics of a traced run, which
runs passes under the tracer for half the time and without it for the
other half, and writes every span to ``.bench_out/``.  Workloads, inputs,
metric meanings and the recorded known failures are in ``bench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from reference import NOMINAL_S, Reference
from tracer import TraceLog, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10  # successful ops the tail percentile must have above it
SETUP_TRIALS = {"words": 7, "cli": 9}
RUN_DEADLINE_S = 160.0

CLI_SUBCOMMANDS = ("generate", "analyze", "encode", "fiber", "measure", "freq", "spectrum", "verify")
CHECKS = ("closed_form", "essential_periods", "four_term_rigidity", "fixed_point_skeleton",
          "equivariance", "fiber_structure", "letter_measure", "spectrum", "eigenfunction",
          "cf_algebra")
MEMORY_SIZES_LOG2 = (20, 22, 24)
MEMORY_WORKLOADS = ("cli",)


def percentile(values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest of TAIL_PERCENTILES with at least TAIL_BEYOND of n samples above it, or None."""
    fitting = [p for p in TAIL_PERCENTILES if n * (100 - Fraction(str(p))) >= 100 * TAIL_BEYOND]
    return fitting[-1] if fitting else None


def unit_of(name):
    for suffix, unit in ((".calls", "count"), ("_per_s", "1/s"), ("ns_per_letter", "ns"),
                         ("bytes_per_letter", "bytes"), ("bytes_copied", "bytes"),
                         ("_mb", "MB"), ("_ratio", "ratio"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="The odoshift benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "odoshift" / "__init__.py").is_file():
        print(f"error: no odoshift sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind like an exception so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    os.environ.pop("ODOSHIFT_MAX_BYTES", None)  # every run uses the default allocation cap
    with open(BENCH / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        return run(args, spec)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)


def run(args, spec):
    began = time.monotonic()
    name = args.workload
    env = workloads.child_env()
    known_ids = {k["id"] for k in spec["known_failures"]}
    workload = workloads.WORKLOADS[name](args.seed)

    # a first import warms the file cache and, where bytecode is written, compiles
    # it; keep that out of every timed trial
    warm = workloads.spawn(workloads.IMPORT_CLI, env)
    if warm.code != 0:
        print(f"error: importing odoshift.cli failed: {warm.err.strip()}", file=sys.stderr)
        return 1
    # setup trials run in fresh children, half before the timed phase and half
    # after it, so that one burst of load on the machine does not set the median
    trials = SETUP_TRIALS[name] if not args.trace or not workload.in_process else 0
    reference = Reference(env)
    setup_times, raw_setup_times = [], []

    def setup_trials(count):
        for _ in range(count):
            before = reference.sample_if_due()
            trial = workloads.spawn(workload.setup_argv(), env)
            if trial.code != 0:
                raise RuntimeError(f"setup trial failed: {trial.err.strip()}")
            raw_setup_times.append(trial.seconds)
            setup_times.append((before, trial.seconds))
        if count:
            reference.sample()

    setup_trials((trials + 1) // 2)
    rss = {"generate": 0.0, "oracle": 0.0}
    if args.trace and name in MEMORY_WORKLOADS:
        rss = memory_probe(env)

    tracer = None
    if workload.in_process:
        import odoshift.verification  # noqa: F401  (loads every module the tracer wraps)

        if args.trace:
            tracer = Tracer().install()
    workload.prepare()

    phases = [("plain", args.seconds)]
    if args.trace:
        phases = [("traced", args.seconds / 2), ("plain", args.seconds / 2)]
    # walls and op times are scaled to the reference speed (reference.py);
    # raw_walls and raw_ops keep the clock readings
    walls = {"traced": [], "plain": []}
    raw_walls = {"traced": [], "plain": []}
    outcomes = {"traced": [], "plain": []}
    raw_ops = []
    ops_run = 0
    for phase, seconds in phases:
        phase_start = time.perf_counter()
        elapsed = []  # whole passes, kernel timings included
        # start another pass while it would end nearer the deadline than not
        while not elapsed or (time.perf_counter() - phase_start
                              + statistics.median(elapsed) / 2 < seconds):
            ops = workload.make_pass(phase == "traced")
            results = []
            pass_start = time.perf_counter()
            for op in ops:
                before = reference.sample_if_due()
                ops_run += 1
                if tracer is not None:
                    tracer.op = ops_run
                results.append((*workloads.execute(op), before))
            reference.sample()
            elapsed.append(time.perf_counter() - pass_start)
            raw_walls[phase].append(sum(op_seconds for _, op_seconds, _ in results))
            scaled = [op_seconds * reference.scale(before) for _, op_seconds, before in results]
            walls[phase].append(sum(scaled))
            for op, (output, op_seconds, _), op_scaled in zip(ops, results, scaled):
                outcome = workloads.judge(op, output, op_scaled, known_ids)
                outcomes[phase].append(outcome)
                if phase == "plain" and outcome.status == "ok":
                    raw_ops.append(op_seconds)
            if time.monotonic() - began > RUN_DEADLINE_S:
                print(f"error: run exceeded {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
                return 1
        if phase == "traced" and tracer is not None:
            tracer.uninstall()

    setup_trials(trials // 2)
    setup_times = [seconds * reference.scale(before) for before, seconds in setup_times]

    everything = outcomes["traced"] + outcomes["plain"]
    failed = [o for o in everything if o.status == "failed"]
    known = [o for o in everything if o.status == "known"]
    for o in failed[:10]:
        print(f"FAILED {o.kind}: {o.reason}")
    for reason in sorted({o.reason for o in known}):
        print(f"known failure: {reason}")
    print(f"workload {name}, seed {args.seed}, {len(walls['traced']) + len(walls['plain'])} passes,"
          f" {len(everything)} ops,"
          f" {len(failed)} failed, {len(known)} known failures,"
          f" failed_ratio {(len(failed) + len(known)) / len(everything):.4f}")

    if args.trace:
        log = TraceLog()
        if tracer is not None:
            log.merge(tracer.dump())
        for op_number, path in getattr(workload, "trace_files", []):
            if path.exists():  # a child killed by its timeout leaves none
                with open(path, encoding="utf-8") as fh:
                    log.merge(json.load(fh), op=op_number)
        metrics = per_layer(workload, log, walls, outcomes["plain"], setup_times, rss)
        metrics["cli.known_failure_ratio"] = len(known) / len(everything)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{args.seed}.json"
        log.write(path, {"workload": name, "seed": args.seed})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        tail_p = spec["workloads"][name]["op_tail_percentile"]
        metrics = end_to_end(workload, walls["plain"], outcomes["plain"], setup_times, tail_p)
        print(f"unscaled: setup_s {statistics.median(raw_setup_times):.6g},"
              f" wall_s {statistics.median(raw_walls['plain']):.6g},"
              f" op_p50_s {statistics.median(raw_ops):.6g},"
              f" op_tail_s {percentile(raw_ops, tail_p):.6g}")
    print(f"reference kernel: median {reference.median():.6g} s over {len(reference.samples)}"
          f" timings, nominal {NOMINAL_S} s")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {unit_of(key)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def end_to_end(workload, walls, outcomes, setup_times, tail_p):
    ok = [o.seconds for o in outcomes if o.status == "ok"]
    rule = tail_percentile(len(ok))
    print(f"op_tail_s is the p{tail_p:g} of {len(ok)} successful ops"
          f" (the ten-beyond rule alone would pick {'none' if rule is None else f'p{rule:g}'})")
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(o.output.maxrss_kb for o in outcomes if isinstance(o.output, workloads.Proc))
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ok),
        "op_tail_s": percentile(ok, tail_p),
        "peak_rss_mb": peak_kb / 1024,
    }


def memory_probe(env):
    """Peak RSS per letter of the generator and the oracle, in a fresh child per size.

    A child's ru_maxrss starts from its parent's peak, so this runs while the
    benchmark process is still small: before it imports numpy or odoshift.
    """
    rss = {}
    for what in ("generate", "oracle"):
        for log2 in MEMORY_SIZES_LOG2:
            child = workloads.spawn(
                [sys.executable, str(BENCH / "child.py"), "memory", what, str(log2)], env)
            if child.code != 0:
                raise RuntimeError(f"memory probe {what} 2^{log2} failed: {child.err.strip()}")
            per_letter = child.maxrss_kb * 1024 / (1 << log2)
            print(f"memory probe: {what} at 2^{log2} letters peaks at"
                  f" {child.maxrss_kb / 1024:.1f} MB, {per_letter:.2f} bytes per letter"
                  f" (the cap promises 1)")
            rss[what] = per_letter  # the largest size is the one reported
    return rss


def per_layer(workload, log, walls, plain, setup_times, rss):
    """Span-derived layer metrics, plus the cli figures timed from outside in the untraced half."""
    metrics = layer_metrics(log, CHECKS)
    metrics["substitution.generate.rss_bytes_per_letter"] = rss["generate"]
    metrics["substitution.oracle.rss_bytes_per_letter"] = rss["oracle"]
    metrics["cli.startup_s"] = 0.0 if workload.in_process else statistics.median(setup_times)
    ok = [o for o in plain if o.status == "ok"]
    for sub in CLI_SUBCOMMANDS:
        mine = [o for o in ok if o.kind == sub]
        metrics[f"cli.{sub}.p50_s"] = statistics.median([o.seconds for o in mine]) if mine else 0.0
        metrics[f"cli.{sub}.peak_rss_mb"] = (
            max(o.output.maxrss_kb for o in mine) / 1024 if mine else 0.0)
    used = getattr(workload, "letters_used", [])
    metrics["cli.letters_used_ratio"] = (
        sum(u for u, _ in used) / sum(n for _, n in used) if used else 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["plain"]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
