"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload solve-fixed --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is ``src/persuade``
of this checkout.  Ops run one at a time in a closed loop from this single
process, in whole cycles of the workload's op mix; ``--seconds`` sets the
number of cycles, so a seed always attempts the same ops.  Every output is
checked.  Informational lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, measured untraced (see
``gauge``); ``--trace 1`` runs each op untraced and then traced, and
reports the per-layer metrics per cycle plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np
from pathlib import Path
from scipy.special import betainc
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "persuade" / "__init__.py").is_file():
    sys.exit(f"perfbench: no src/persuade under {ROOT}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import trace  # noqa: E402
from perfbench.workloads import COLD_VERBS, WORKLOADS, Record, run_op  # noqa: E402

# Set-up is timed this many times, each in a fresh process; the median counts.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import, build inputs and warm up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return statistics.median(times)


# The host-speed gauge: the fastest of GAUGE_TRIES runs of a fixed kernel
# of interpreter arithmetic and a numpy sort (about 1.6 ms each), taken
# between every two ops.  The shared host this was built on runs the same
# code up to 1.7x slower in phases lasting seconds to minutes, longer than
# a run, and stalls single runs of the kernel for 10-20 ms.  The time of an
# op in this process, scaled by GAUGE_NOMINAL_S over the gauge around it,
# is steadier across those phases than its raw time; the gauge's code never
# changes with the program, so the scaled time moves only when the program
# does.  Ops in child processes are not scaled (see Workload.gauged).
GAUGE_ARRAY = np.random.default_rng(0).random(30_000)
# The gauge's median on the 2-core host the benchmark was built on.
GAUGE_NOMINAL_S = 1.6e-3
GAUGE_TRIES = 4
# An op is scaled by the median of the gauges this many gaps either side.
GAUGE_WINDOW = 2


def gauge() -> float:
    # The kernel allocates no Python objects and runs with the collector
    # off, so the heap an op leaves behind cannot change its time.
    best = float("inf")
    gc.disable()
    try:
        for _ in range(GAUGE_TRIES):
            start = perf_counter()
            acc = 0
            for i in range(14_000):
                acc += i * i % 7
            np.sort(GAUGE_ARRAY)
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


def gauged(ops) -> list[Record]:
    """Run ``ops`` in order with a gauge before, between and after them.

    Each record's ``gauge`` is the median of the gauges within
    GAUGE_WINDOW gaps of it.
    """
    marks = [gauge()]
    records = []
    for op in ops:
        records.append(run_op(op))
        marks.append(gauge())
    for i, record in enumerate(records):
        window = marks[max(0, i + 1 - GAUGE_WINDOW):i + 1 + GAUGE_WINDOW]
        record.gauge = statistics.median(window)
    return records


def measure(workload, cycles: int) -> list[list[Record]]:
    """Run ``cycles`` cycles of ops ``workload.repeats`` times; each op's runs.

    Each repeat must print the same bytes as the first run.
    """
    ops = [op for c in range(cycles) for op in workload.cycle(c)]
    runs = [[r] for r in gauged(ops)]
    workload.finish([rs[0] for rs in runs])
    for _ in range(workload.repeats - 1):
        for rs, again in zip(runs, gauged(ops)):
            if again.outcome.stdout != rs[0].outcome.stdout:
                again.problems.append("stdout differs between repeats")
                again.mismatch = True
            elif rs[0].problems and not again.problems:
                again.problems = list(rs[0].problems)
            rs.append(again)
    return runs


def measure_traced(workload, cycles: int, tracer) -> tuple[list[Record], list[Record]]:
    """Run ``cycles`` cycles, each op untraced and then traced: (untraced, traced).

    A traced op must print the same bytes as its untraced twin.
    """
    plain: list[Record] = []
    traced: list[Record] = []
    for c in range(cycles):
        for op in workload.cycle(c):
            plain.append(run_op(op))
            twin = run_op(op, tracer, len(traced))
            tracer.absorb(twin.outcome.spans, len(traced))
            if twin.outcome.stdout != plain[-1].outcome.stdout:
                twin.problems.append("traced stdout differs from the untraced run")
                twin.mismatch = True
            traced.append(twin)
    workload.finish(plain)
    for twin, base in zip(traced, plain):
        if base.problems and not twin.problems:
            twin.problems = list(base.problems)
    return plain, traced


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics: when a seed's draw moves
    an op a rank or two, it shifts smoothly, where a single order statistic
    jumps by the gap between neighbours.
    """
    x = np.sort(values)
    n = x.size
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def end_to_end(runs: list[list[Record]], setup_s: float, gauged: bool) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the figures printed beside them.

    An op's time is its fastest run; with ``gauged``, each run's time is
    first scaled to the nominal gauge (the ``raw_`` figures are unscaled).
    """
    records = [r for rs in runs for r in rs]
    best = {id(rs[0]): min(r.outcome.seconds for r in rs) for rs in runs}
    times = list(best.values())
    if gauged:
        gated = [min(r.outcome.seconds * GAUGE_NOMINAL_S / r.gauge for r in rs) for rs in runs]
    else:
        gated = times
    child_rss = [r.outcome.rss_mb for r in records if r.outcome.rss_mb]
    peak = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "op_mean_s": (statistics.fmean(gated), "s"),
        "op_p50_s": (quantile(gated, 0.5), "s"),
        "op_p90_s": (quantile(gated, 0.9), "s"),
    }
    by_kind: dict[str, list[Record]] = {}
    for rs in runs:
        by_kind.setdefault(rs[0].kind.split(":")[0], []).append(rs[0])
    info = {
        "ops": len(times),
        "runs_per_op": len(runs[0]),
        "gauged": gauged,
        "gauge_ms": 1e3 * statistics.median(r.gauge for r in records),
        "raw_op_mean_s": statistics.fmean(times),
        "raw_op_p50_s": quantile(times, 0.5),
        "raw_op_p90_s": quantile(times, 0.9),
    }
    for kind, firsts in sorted(by_kind.items()):
        t = [best[id(r)] for r in firsts]
        info[f"{kind}.ops"] = len(firsts)
        info[f"{kind}.p50_s"] = statistics.median(t)
        rate = sum(r.work for r in firsts) / sum(t)
        if kind == "simulate" and "sample" in by_kind:
            info["events_per_s"] = rate
        elif kind == "sample":
            info["samples_per_s"] = rate
        elif kind in COLD_VERBS:
            info[f"cold_{kind.replace('-', '_')}_s"] = statistics.median(t)
    return metrics, info


def per_layer(tracer, plain: list[Record], traced: list[Record], cycles: int) -> dict:
    metrics = trace.importtime(ROOT)
    metrics.update(trace.layer_metrics(tracer.spans, cycles))
    metrics["cli.stdout_bytes"] = (
        sum(len(r.outcome.stdout.encode()) for r in traced if r.kind != "sample") / cycles
    )
    plain_s = sum(r.outcome.seconds for r in plain)
    metrics["trace.overhead_frac"] = sum(r.outcome.seconds for r in traced) / plain_s - 1.0
    return {name: (metrics[name], unit) for name, unit in trace.METRIC_UNITS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir, ROOT)
            return 0
        setup_s = time_setup(args.workload, args.seed) if not args.trace else 0.0
        workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        if args.trace:
            # Each op runs twice (untraced, traced), so a traced run holds
            # about half the executions of an untraced one.
            cycles = max(1, workload.cycles(args.seconds) * workload.repeats // 2)
            tracer = trace.Tracer()
            plain, traced = measure_traced(workload, cycles, tracer)
            records = plain + traced
            metrics = per_layer(tracer, plain, traced, cycles)
            info = {"cycles": cycles, "ops_per_cycle": len(plain) // cycles}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.spans))
            info["spans"] = str(spans_file.relative_to(ROOT))
        else:
            cycles = workload.cycles(args.seconds)
            runs = measure(workload, cycles)
            records = [r for rs in runs for r in rs]
            metrics, info = end_to_end(runs, setup_s, workload.gauged)
            info["cycles"] = cycles
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    records = list(workload.setup_records) + records
    failed = sum(r.failed for r in records)
    info["failed_frac"] = failed / len(records)
    failures = [f"{r.kind}: {p}" for r in records for p in r.problems]
    tally: dict[str, int] = {}
    for item in failures:
        key = re.sub(r"[-+]?\d[\d.e+-]*", "#", item)[:160]
        tally[key] = tally.get(key, 0) + 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + json.dumps(info, sort_keys=True))
    for key, n in sorted(tally.items()):
        print(f"failed x{n}: {key}")
    print(json.dumps({
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
