#!/usr/bin/env python3
"""Smoke check of the benchmark itself, in well under a minute.

    python3 benchmarks/smoke.py

Runs every workload for one second at tiny sizes, untraced and traced, and
checks that
  - the last line has exactly the keys correct, attempted, failed, metrics;
  - every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is printed, with its unit, and nothing else;
  - the verdicts are correct and the failure ratio equals the share of ops
    listed as expected failures;
and that in a directory holding only BENCHMARK.json and the benchmark's
files (no sources) the benchmark exits non-zero without a result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUMMARY = re.compile(r"(\d+) ops in \d+ rounds, (\d+) failed .*, (\d+) listed as expected failures")


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                problems.append(f"{tag}: metrics differ; missing {missing}, extra {extra}")
            if not result["correct"]:
                problems.append(f"{tag}: a verdict disagreed with its oracle")
            match = SUMMARY.search(lines[0])
            attempted, failed, listed = (int(x) for x in match.groups())
            if attempted != result["attempted"] or failed != result["failed"] or failed != listed:
                problems.append(f"{tag}: {failed} of {attempted} ops failed, {listed} listed as expected failures")
            if trace == 0:
                fail_ratio = 1.0 - result["metrics"]["ok_ratio"]["value"]
                if abs(fail_ratio - listed / attempted) > 1e-12:
                    problems.append(f"{tag}: fail_ratio {fail_ratio} is not the listed share {listed / attempted}")
            print(f"{tag}: {attempted} ops, {failed} expected failures", flush=True)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")

    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
