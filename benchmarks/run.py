#!/usr/bin/env python3
"""bundleforge benchmark: one seeded workload, one closed-loop client.

    python3 benchmarks/run.py --workload bundle-scale --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  A run measures a fixed number of rounds of ops, sized by
the workload's ROUND_SECONDS so that it lasts about --seconds on the seed
code: a seed then always measures the same work, and a faster program
shows as more ops per second over that work.  Each op builds its library
objects from plain data inside the timed region; its verdict is checked
afterwards against an answer the benchmark knows independently
(oracles.py).

--trace 0 prints the end-to-end metrics; --trace 1 installs timing
wrappers (tracing.py) and prints the per-layer metrics instead.  The last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from pace import NOMINAL_MS, Pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("bundle-scale", "kclass-enum", "formula-check", "paper-cases")
#: Fresh processes timed from start to their first timed op; setup_s is
#: their median.
SETUP_PROBES = 5
#: Fewest ops a run measures, so that ten lie beyond the 90th percentile.
MIN_OPS = 100
#: A run on a host much slower than usual stops starting rounds after this
#: many times --seconds, so that it still ends in time.
MAX_STRETCH = 1.5
#: Interpreter hash seed every run uses.
HASH_SEED = "0"


def load_expected() -> set[str]:
    with open(os.path.join(HERE, "expected_failures.json")) as fh:
        return {e["case"] for e in json.load(fh)["expected_failures"]}


def setup(workload: str, seed: int, seconds: float, tiny: bool, workdir: str):
    """Import the library from this checkout, plan the run's inputs and run
    the warm-up ops.  Returns the workload object and its round count."""
    sys.path.insert(0, SRC)
    import bundleforge

    if os.path.dirname(os.path.dirname(os.path.abspath(bundleforge.__file__))) != SRC:
        raise ImportError(f"bundleforge imported from {bundleforge.__file__}, not from {SRC}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-cases":
        from paper_cases import PaperCases

        wl = PaperCases(rng, tiny, planned_rounds(PaperCases, seconds), workdir)
    else:
        if workload == "bundle-scale":
            from bundle_scale import BundleScale as cls
        elif workload == "kclass-enum":
            from kclass_enum import KclassEnum as cls
        else:
            from formula_check import FormulaCheck as cls
        wl = cls(rng, tiny, planned_rounds(cls, seconds))
    run_ops(wl.warmup())
    return wl, planned_rounds(type(wl), seconds)


def planned_rounds(cls, seconds: float) -> int:
    return max(round(seconds / cls.ROUND_SECONDS), math.ceil(MIN_OPS / cls.ROUND_OPS))


def run_ops(ops, records=None, tracer=None, pace=None) -> None:
    """Run ops one after another.  A record is (latency_s, ok, raised,
    case, start): ok when the verdict matches the oracle, raised when the op
    threw.  With a pace, the reference block is timed between ops."""
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        if pace is not None:
            pace.sample()
        start = time.perf_counter()
        try:
            result = op.run()
            raised = False
        except Exception:  # any escaping exception fails the op
            raised = True
        latency = time.perf_counter() - start
        ok = False
        if not raised:
            try:
                ok = bool(op.check(result))
            except Exception:  # a malformed result is a wrong verdict
                ok = False
        if records is not None:
            records.append((latency, ok, raised, op.case, start))


def run_rounds(wl, first: int, rounds: int, seconds: float, records: list, **kwargs) -> int:
    """Run rounds first..rounds-1; returns the number of rounds run."""
    start = time.perf_counter()
    for index in range(first, rounds):
        if time.perf_counter() - start > MAX_STRETCH * seconds:
            return index
        run_ops(wl.round(index), records, **kwargs)
    return rounds


def percentile(latencies: list[float], failed: list[bool], q: float) -> float:
    """Nearest-rank percentile of latency in ms, failed ops ranked slowest."""
    ranked = sorted(zip(failed, latencies))
    k = max(0, min(len(ranked) - 1, math.ceil(q * len(ranked)) - 1))
    return ranked[k][1] * 1000.0


def measure_setup(args) -> float:
    """Median over fresh processes of the time from start to the first
    timed op.  Not scaled to the host pace: the reference block did not
    track process start-up, and scaling doubled the spread."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=170, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(records: list, pace: Pace, setup_s: float) -> dict:
    """The end-to-end metrics, with op latencies at nominal host pace."""
    latencies = [r[0] * pace.factor(r[4], r[4] + r[0]) for r in records]
    failed = [not r[1] for r in records]
    ok = failed.count(False)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ok / sum(latencies), "unit": "1/s"},
        "op_ms.p50": {"value": percentile(latencies, failed, 0.5), "unit": "ms"},
        "op_ms.p90": {"value": percentile(latencies, failed, 0.9), "unit": "ms"},
        "ok_ratio": {"value": ok / len(records), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing orders sets and dicts, and with them how much work a
        # search does; fix it so that a seed always measures the same work.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    if not os.path.isfile(os.path.join(SRC, "bundleforge", "__init__.py")):
        print(f"error: no bundleforge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("BUNDLEFORGE_BUDGET", None)
    expected = load_expected()

    setup_s = None if args.setup_only else measure_setup(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    records: list = []
    try:
        wl, rounds = setup(args.workload, args.seed, args.seconds, args.tiny, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            first = wl.round(0)
            start = time.perf_counter()
            run_ops(first, records)
            untraced = time.perf_counter() - start
            tracer.install()
            try:
                start = time.perf_counter()
                run_ops(first, records, tracer)
                overhead = (time.perf_counter() - start) / untraced
                done = run_rounds(wl, 1, rounds, args.seconds, records, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
            values = tracer.metrics(overhead)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.metric_names()}
        else:
            pace = Pace()
            done = run_rounds(wl, 0, rounds, args.seconds, records, pace=pace)
            pace.sample()
            metrics = end_to_end(records, pace, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = {r[3] for r in records if r[3] is not None} - expected
    if unknown:
        raise KeyError(f"ops name expected failures not listed in expected_failures.json: {sorted(unknown)}")
    attempted = len(records)
    failed = sum(1 for r in records if not r[1])
    listed = sum(1 for r in records if r[3] is not None)
    # Correct: every op matched its oracle, or is a listed expected failure
    # that raised (a refusal or crash), never a wrong verdict.
    correct = all(r[1] or (r[2] and r[3] in expected) for r in records)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {done} rounds, "
          f"{failed} failed (fail_ratio {failed / attempted:.4f}), {listed} listed as expected failures")
    if not args.trace:
        busy = sum(r[0] for r in records)
        print(f"  at host pace: ops_per_s {(attempted - failed) / busy:.6g}; reference block median "
              f"{statistics.median(pace.durations) * 1000:.4g} ms (nominal {NOMINAL_MS} ms)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
