#!/usr/bin/env python3
"""m4calc benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

runs one workload in this process: one client on one thread sends the
next request only when the previous one has returned.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics untraced, the per-layer metrics
traced).  A traced run alternates traced and untraced rounds and also
reports the tracing overhead.  Without --workload the command runs every
workload, each in a fresh process, untraced and then traced, and prints a
table.

The engine is imported from `src/` next to this directory; the benchmark
refuses to run without it.  Inputs are written under perfbench/_work/ and
removed at the end; a traced run writes its spans to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LAYERS = ("lattice", "swring", "knots", "manifold", "surgery", "geography", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "requests/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# setup_s is the median of set-ups timed before the first round (at least
# SETUP_REPEATS, for at least SETUP_MIN_S) and between rounds (at least one,
# for at least SETUP_ROUND_S).  One set-up of the cheap workloads takes under
# 0.1 s, and the host's speed changes within seconds and drifts over
# minutes; sampled over the whole run, set-up sees the same host as the
# requests do.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_ROUND_S = 0.5
# Wall-clock cap on one request.  The slowest request (the Seifert matrix of
# T(3,8), size 14) takes 2.6-4.0 s on a 2-vCPU machine whose speed drifts.
REQUEST_CAP_S = 20.0


class RequestTimeout(BaseException):
    """Raised by the timer signal; a BaseException so that the CLI's own
    `except Exception` does not swallow it."""


def _on_alarm(_signum, _frame):
    raise RequestTimeout


def engine_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "m4calc" or n.startswith("m4calc.")}


def import_engine() -> SimpleNamespace:
    """Import m4calc afresh from SRC (dropping any loaded copy)."""
    for name in engine_modules():
        del sys.modules[name]
    engine = SimpleNamespace(
        **{layer: importlib.import_module(f"m4calc.{layer}") for layer in LAYERS})
    if not os.path.abspath(engine.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"m4calc was imported from {engine.cli.__file__}, not {SRC}")
    return engine


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, "_work"))
    setup_times: list[float] = []

    def setup():
        """One timed set-up, with its inputs in a fresh directory."""
        workdir = tempfile.mkdtemp(dir=workroot)
        gc.collect()  # free earlier set-ups outside the timing
        t0 = perf_counter()
        engine = import_engine()
        workload = WORKLOADS[name](engine, random.Random(seed), workdir)
        setup_times.append(perf_counter() - t0)
        return engine, workload

    def sample_setup():
        """Set up again between rounds, then put the run's engine back
        where the engine's own imports look it up."""
        kept = engine_modules()
        start = len(setup_times)
        while len(setup_times) == start or sum(setup_times[start:]) < SETUP_ROUND_S:
            setup()
        for module in engine_modules():
            del sys.modules[module]
        sys.modules.update(kept)

    try:
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            engine = workload = None
            engine, workload = setup()
        tracer = spans.Tracer() if trace else None
        return _measure(name, seed, seconds, engine, workload, tracer,
                        None if trace else sample_setup, setup_times)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def _measure(name, seed, seconds, engine, workload, tracer, sample_setup,
             setup_times) -> dict:
    """Whole rounds until `seconds` of request time have passed.  With a
    tracer, even rounds are traced and odd ones not, and the metrics are the
    per-layer ones.  Untraced, `sample_setup` runs between rounds."""
    requests = workload.requests
    latencies: dict[str, list[float]] = {r.kind: [] for r in requests}
    round_s: dict[bool, list[float]] = {True: [], False: []}
    reasons: Counter = Counter()
    wrong: list[str] = []
    attempted = failed = rounds = 0
    timed = 0.0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        while rounds < (2 if tracer else 1) or timed < seconds:
            traced = tracer is not None and rounds % 2 == 0
            undo = spans.install(tracer, engine) if traced else []
            workload.stats.clear()
            started = timed
            for req in requests:
                attempted += 1
                span = tracer.begin("request") if traced else None
                t0 = perf_counter()
                error = None
                try:
                    signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
                    try:
                        out = req.call()
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except RequestTimeout:
                    error = "timeout"
                except Exception as exc:  # a failed operation; the run goes on
                    error = f"error {type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
                if traced:
                    tracer.finish(span)
                timed += dt
                if error is None:
                    error = req.check(out)
                    unexpected = error is not None and req.fault is None
                else:
                    # no request is known to raise or time out, a known
                    # fault included: each shows as a wrong output
                    unexpected = True
                if unexpected:
                    wrong.append(f"{req.kind}: {error}")
                if error is None:
                    latencies[req.kind].append(dt)
                else:
                    failed += 1
                    reasons[f"{'unexpected' if unexpected else req.fault} "
                            f"{req.kind}: {error}"] += 1
            spans.uninstall(undo)
            if traced:
                for key, value in workload.stats.items():
                    tracer.count(key, value)
            round_s[traced].append(timed - started)
            rounds += 1
            if sample_setup is not None and timed < seconds:
                sample_setup()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    for reason, count in sorted(reasons.items()):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    for line in wrong[:5]:
        print(f"WRONG OUTPUT {line}", file=sys.stderr)
    done = [x for xs in latencies.values() for x in xs]
    print(f"{name} seed={seed}: {rounds} rounds, {attempted} requests, "
          f"{timed:.2f} s timed", file=sys.stderr)
    for kind, xs in sorted(latencies.items(), key=lambda kv: -statistics.median(kv[1] or [0])):
        if xs:
            print(f"  {statistics.median(xs) * 1e3:10.2f} ms  {kind}", file=sys.stderr)

    if tracer:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.write(os.path.join(HERE, "traces", f"{name}-seed{seed}.tsv"))
        metrics = tracer.per_layer(len(round_s[True]), statistics.mean(round_s[True]),
                                   statistics.mean(round_s[False]))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput_rps": len(done) / timed,
            "latency_p50_s": statistics.median(done),
            "latency_tail_s": statistics.quantiles(
                done, n=100, method="inclusive")[workload.tail_percentile - 1],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def run_all(seed: int) -> int:
    """Every workload in a fresh process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited {proc.returncode}")
                status = 1
                break
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        print(f"\n== {name}: correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        base = traced["metrics"]["trace.untraced_round_s"]["value"]
        print(f"  tracing overhead: {overhead / base:+.1%} of an untraced round")
        status |= 0 if plain["correct"] and traced["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="request time to measure (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "m4calc")):
        print(f"error: no m4calc sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload is None:
        return run_all(args.seed)
    seconds = run_seconds() if args.seconds is None else args.seconds
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
