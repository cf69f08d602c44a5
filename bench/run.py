#!/usr/bin/env python3
"""Benchmark of expressivity-auditor's four user-facing audit paths.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]

NAME is campaign, restrict_deep, floors or swap (see bench/README.md). The
ops run in-process through the package's public API, so interpreter start-up
is not timed. Set-up (a fresh import of the package and building the inputs
from the seed) runs once, then the workload's own checks run untimed. After
that, whole rounds of ops run for about S seconds of op time, with set-up
repeated after each round. Every op's output is checked, untimed, against
closed forms and oracles in bench/oracles.py. A calibration kernel
(bench/hostspeed.py) runs just before and just after each timed op; the
headline rate is scaled by its slowdown, so that a spell of host load
shows in neither direction. Set-up times are scaled the same way.

With --trace 0 the last stdout line reports the end-to-end metrics. With
--trace 1 it reports per-layer metrics from a traced pass over a fixed list
of ops, and an untraced pass over the same ops, alternating op by op, gives
the overhead and a byte-for-byte output comparison. The line before the last
holds provenance and details (error rate, median and tail latency, per-kind
medians). Both lines, and the traced run's spans, are also written under
.bench_out/. `--workload all` runs each workload in its own process and
prints every end-to-end metric and detail figure with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import hostspeed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "expressivity_auditor"
OUT = ROOT / ".bench_out"
# Stop starting rounds after this much wall time so a run always ends well
# inside its 180-second limit, whatever --seconds asks for.
WALL_LIMIT_S = 120.0
THREAD_VARS = ("EXPR_AUDIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = {"norm_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Calibration time on each side of a timed op, as a share of the op's time.
CAL_SHARE = 0.05


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def fresh_setup(workload, seed):
    """(package, inputs, (seconds, host factor)) of one fresh import of the
    package plus input generation from the seed."""
    gc.collect()
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    before = hostspeed.factor()
    start = perf_counter()
    ea = importlib.import_module(PACKAGE)
    state = workload.setup(ea, seed)
    took = perf_counter() - start
    return ea, state, (took, (before + hostspeed.factor()) / 2)


def tail_latency(latencies_s):
    """Highest listed percentile with at least 10 ops beyond it, or None."""
    xs = sorted(latencies_s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return {"percentile": p, "ms": xs[rank - 1] * 1e3, "samples": len(xs)}
    return None


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload, ea, state):
        self.workload, self.ea, self.state = workload, ea, state
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, op, call=None):
        """(seconds, result) of one op; result is None when it raised."""
        self.attempted += 1
        call = call or self.workload.run
        start = perf_counter()
        try:
            result = call(self.ea, self.state, op)
        except Exception as exc:  # an op failure is counted, not fatal
            elapsed = perf_counter() - start
            self.failed += 1
            self.problems.append(f"{op!r}: {type(exc).__name__}: {exc}")
            return elapsed, None
        return perf_counter() - start, result

    def check(self, op, result):
        """The op's output digest, or None after counting a failed check."""
        if result is None:
            return None
        problems, digest = self.workload.verify(self.ea, self.state, op, result)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return digest


def measure(runner, seed, seconds, wall_start, setup_times):
    """Whole rounds of ops for about `seconds` of op time: another round
    starts only if it should end within half a round of `seconds`. Set-up
    is repeated after each round (its result discarded), so that its median
    spans the run.

    `norm_ops_per_s` is the plain rate times the op-time-weighted mean host
    factor, where an op's factor is the mean of the calibration kernel's
    factor just before and just after it. Each side runs the kernel for
    about CAL_SHARE of the op's time (of the op before, for the side
    before), so that long ops get as many samples per second of op time as
    short ones. `setup_s` is the median set-up
    time divided, set-up by set-up, by the same kind of factor.
    """
    workload = runner.workload
    latencies, kinds, rounds = [], [], []
    host_s = 0.0  # op seconds weighted by the host factor around each op
    passes = 1
    while (not rounds or sum(rounds) * (1 + 0.5 / len(rounds)) < seconds) \
            and perf_counter() - wall_start < WALL_LIMIT_S:
        took = 0.0
        for op in workload.round(runner.state, len(rounds)):
            before = hostspeed.factor(passes)
            dt, result = runner.run(op)
            passes = max(1, round(CAL_SHARE * dt / hostspeed.NOMINAL_S))
            host_s += dt * (before + hostspeed.factor(passes)) / 2
            runner.check(op, result)
            took += dt
            latencies.append(dt)
            kinds.append(workload.kind(op))
        rounds.append(took)
        setup_times.append(fresh_setup(workload, seed)[2])
    completed = runner.attempted - runner.failed
    per_kind = {k: statistics.median(t for t, kk in zip(latencies, kinds) if kk == k) * 1e3
                for k in dict.fromkeys(kinds)}
    host = host_s / sum(rounds)
    return {
        "norm_ops_per_s": completed / sum(rounds) * host,
        "setup_s": statistics.median(t / h for t, h in setup_times),
    }, {"rounds": len(rounds), "measured_s": sum(rounds),
        "ops_per_s": completed / sum(rounds), "host_factor": host,
        "op_p50_ms": statistics.median(latencies) * 1e3, "op_tail_ms": tail_latency(latencies),
        "per_kind_p50_ms": per_kind, "latencies_ms": [[k, t * 1e3] for k, t in zip(kinds, latencies)]}


def traced(runner):
    """Per-layer metrics of a traced pass over the workload's trace ops, and
    an untraced pass over the same ops for overhead and output bytes. The
    passes alternate op by op, in the order ABBA, so that a slowdown of the
    host over the run biases neither."""
    workload = runner.workload
    ops = workload.trace_ops(runner.state)
    tracer = tracing.Tracer(PACKAGE, extra_modules=("workloads",))
    passes = [[], []]  # traced, untraced: (seconds, result) per op
    for i, op in enumerate(ops):
        for with_trace in (True, False) if i % 2 == 0 else (False, True):
            if not with_trace:
                passes[1].append(runner.run(op))
                continue
            tracer.install()
            try:
                passes[0].append(runner.run(
                    op, lambda ea, st, o, i=i: tracer.run_op(i, workload.run, ea, st, o)))
            finally:
                tracer.remove()
    digests = [[runner.check(op, res) for op, (_, res) in zip(ops, p)] for p in passes]
    if digests[0] != digests[1]:
        runner.failed += 1
        runner.problems.append("traced outputs differ from untraced outputs")
    rates = [len(ops) / sum(dt for dt, _ in p) for p in passes]
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (rates[1] - rates[0]) / rates[1] * 100.0
    info = {"trace_ops": len(ops), "traced_ops_per_s": rates[0], "untraced_ops_per_s": rates[1],
            "calls_per_op": [dict(op=workload.kind(op), **tracer.calls_by_op().get(i, {}))
                             for i, op in enumerate(ops)]}
    return metrics, info, tracer


def run_workload(args) -> int:
    wall_start = perf_counter()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"bench: package source {SRC / PACKAGE} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    prov = provenance(args)
    ea, state, setup_time = fresh_setup(workload, args.seed)
    setup_times = [setup_time]  # (seconds, host factor) per set-up
    runner = Runner(workload, ea, state)
    runner.problems.extend(workload.checks(ea, state))
    tracer = None
    if args.trace:
        metrics, info, tracer = traced(runner)
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    else:
        metrics, info = measure(runner, args.seed, args.seconds, wall_start, setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    correct = not runner.problems and runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = dict(info, provenance=prov, setup_runs_s=[t for t, _ in setup_times],
                   setup_host_factors=[h for _, h in setup_times],
                   error_rate=runner.failed / runner.attempted,
                   problems=runner.problems[:20], wall_s=perf_counter() - wall_start)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed})
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); prints
    every end-to-end metric with its unit, plus error rate and tail."""
    status = 0
    for name in ("campaign", "restrict_deep", "floors", "swap"):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<48} {v['value']:>14.6g} {v['unit']}")
        print(f"  {'error_rate':<48} {details['error_rate']:>14.6g} ratio")
        if "ops_per_s" in details:
            print(f"  {'ops_per_s':<48} {details['ops_per_s']:>14.6g} 1/s")
            print(f"  {'host_factor':<48} {details['host_factor']:>14.6g} ratio")
        if "op_p50_ms" in details:
            print(f"  {'op_p50_ms':<48} {details['op_p50_ms']:>14.6g} ms")
        tail = details.get("op_tail_ms")
        if tail:
            print(f"  {'op_tail_ms':<48} {tail['ms']:>14.6g} ms "
                  f"(p{tail['percentile']:g} of {tail['samples']} ops)")
        elif not args.trace:
            print(f"  {'op_tail_ms':<48} {'-':>14} (fewer than 20 ops)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "restrict_deep", "floors", "swap", "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
