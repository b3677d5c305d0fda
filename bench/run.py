"""fockmz benchmark: three workloads, end-to-end metrics or a traced run.

Run from the repository root:

    python3 bench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs closed-loop with one client in its own interpreter, with
BLAS pinned to one thread. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer metrics. See
bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper-figures", "wide-circuits", "engine-crosscheck")
SETUP_SAMPLES = 7     # set-ups per run: this interpreter plus fresh probes
MIN_CYCLES = 3        # so that even a short run has a tail sample
TAIL_BEYOND = 10      # samples that must lie beyond the tail percentile

for _var in BLAS_THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"


def tail_latency(samples, beyond=TAIL_BEYOND):
    """(value, percentile) at the highest percentile with `beyond` samples
    above it: the (beyond+1)-th largest sample."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    value = sorted(samples)[n - beyond - 1]
    return value, 100.0 * (n - beyond) / n


class Outcome:
    """Latencies and failures of a sequence of ops."""

    def __init__(self):
        self.latencies = []  # seconds, every attempted op
        self.ok = []         # per op: completed and passed its check
        self.failed = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.latencies)

    def record(self, latency, error=None):
        self.latencies.append(latency)
        self.ok.append(error is None)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def cycle_throughput(self, per_cycle):
        """Completed ops per second of op time, median over whole cycles."""
        rates = [sum(self.ok[i:i + per_cycle]) / sum(self.latencies[i:i + per_cycle])
                 for i in range(0, self.attempted, per_cycle)]
        return statistics.median(rates)


def run_op(workload, op, outcome, tracer=None):
    """Run one op, timed (and traced when a tracer is given), then check it
    outside both the timer and the trace."""
    from workloads import CheckFailed
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(op)
        else:
            with tracer.op():
                result = workload.execute(op)
    except (Exception, SystemExit) as exc:  # an op that raises counts as failed
        outcome.record(time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        return
    latency = time.perf_counter() - t0
    try:
        workload.check(op, result)
    except CheckFailed as exc:
        outcome.record(latency, str(exc))
        return
    outcome.record(latency)


def run_ops(workload, stream, count, tracer=None, outcome=None):
    if outcome is None:
        outcome = Outcome()
    for index in range(count):
        run_op(workload, workload.make_op(stream, index), outcome, tracer)
    return outcome


def timed_loop(workload, seconds):
    """Whole cycles until `seconds` of op time have passed."""
    from workloads import STREAM_TIMED
    outcome = Outcome()
    per_cycle = len(workload.cycle)
    index = 0
    while index < MIN_CYCLES * per_cycle or sum(outcome.latencies) < seconds:
        for _ in range(per_cycle):
            run_op(workload, workload.make_op(STREAM_TIMED, index), outcome)
            index += 1
    return outcome


def set_up(name, seed):
    """Import fockmz, generate inputs, run one untimed warm-up op.
    Returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name](seed, ROOT)
    warm = Outcome()
    run_op(workload, workload.make_op(workloads.STREAM_WARMUP, 0), warm)
    seconds = time.perf_counter() - t0
    if warm.failed:
        workload.close()
        raise SystemExit(f"bench: warm-up op failed: {warm.errors[0]}")
    return workload, seconds


def probe_setup(name, seed):
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed):
    import numpy
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, seconds):
    workload, own_setup = set_up(name, seed)
    try:
        outcome = timed_loop(workload, seconds)
    finally:
        workload.close()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [own_setup] + [probe_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    lat_ms = [t * 1000.0 for t in outcome.latencies]
    tail, pct = tail_latency(lat_ms)
    per_cycle = len(workload.cycle)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(outcome.cycle_throughput(per_cycle), "ops/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"median of {outcome.attempted // per_cycle} cycles",
        "op_p50_ms": f"n={len(lat_ms)}",
        "op_tail_ms": f"p{pct:.2f}, n={len(lat_ms)}, {TAIL_BEYOND} beyond",
    }
    print(f"{name}: {outcome.attempted} ops in {sum(outcome.latencies):.2f} s of op time")
    for key, m in metrics.items():
        print(f"  {key:<14} {m['value']:.6g} {m['unit']:<6} {notes.get(key, '')}")
    print(f"  {'fail_ratio':<14} {outcome.failed / outcome.attempted:.6g} 1      "
          f"{outcome.failed} of {outcome.attempted}")
    return outcome, metrics


def traced(name, seed):
    """Untraced reference pass, then the traced pass over as many ops."""
    import spans
    from workloads import STREAM_REFERENCE, STREAM_TIMED
    workload, _ = set_up(name, seed)
    count = workload.trace_cycles * len(workload.cycle)
    tracer = spans.Tracer()
    try:
        outcome = run_ops(workload, STREAM_REFERENCE, count)
        untraced_s = sum(outcome.latencies)
        with spans.installed(tracer):
            run_ops(workload, STREAM_TIMED, count, tracer, outcome)
    finally:
        workload.close()
    metrics = {key: metric(value, unit)
               for key, (value, unit) in spans.per_layer(tracer).items()}
    metrics["trace.overhead_ratio"] = metric(tracer.op_wall_s / untraced_s - 1.0, "1")
    print(f"{name}: traced {count} ops ({workload.trace_cycles} cycles), "
          f"{tracer.op_wall_s:.2f} s traced vs {untraced_s:.2f} s untraced")
    for key, m in metrics.items():
        print(f"  {key:<36} {m['value']:.6g} {m['unit']}")
    return outcome, metrics


def run_all(args):
    """Each workload in its own interpreter; the last line maps name -> result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def record_golden():
    """Write the SHA-256 of every paper-figures op's output to golden.json."""
    import hashlib
    import workloads
    workload = workloads.PaperFigures(0, ROOT)
    try:
        golden = {}
        for index in range(len(workload.cycle)):
            op = workload.make_op(workloads.STREAM_TIMED, index)
            result = workload.execute(op)
            if result[0] != 0:
                raise SystemExit(f"bench: {op[0]} exited {result[0]}")
            golden[op[0]] = hashlib.sha256(workload.output_bytes(op, result)).hexdigest()
    finally:
        workload.close()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite bench/golden.json from the current program")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fockmz" / "__init__.py").is_file():
        print(f"bench: no fockmz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workload, seconds = set_up(args.workload, args.seed)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.trace:
        outcome, metrics = traced(args.workload, args.seed)
    else:
        outcome, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for message in outcome.errors:
        print(f"bench: failed op: {message}", file=sys.stderr)
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
