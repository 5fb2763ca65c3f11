#!/usr/bin/env python3
"""Runs one workload of the iOverlay data-plane benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chain4-1k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

It builds perfbench/ (which compiles the engine libraries from src/) into
.bench_build/perfbench, runs the workload in a fresh process and passes
its lines through. The last line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Traced runs also write
their spans to .bench_build/traces/. The exit code is non-zero when a
delivery was wrong or the build or the run failed.

--selftest runs every workload briefly, checks that every metric named
in BENCHMARK.json is printed with its unit, and checks that a corrupted
and a dropped delivery fed to the sink each make the run fail.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "iov_perfbench"
WORKLOADS = ("chain4-1k", "chain4-64k", "tree1k-cbr")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no iOverlay sources at ./src; run from the repository root")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = BUILD / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "iov_perfbench",
         "-j", jobs],
    ]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                die("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0:
            return "git-" + sha.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, lines, result or None)."""
    traces = ROOT / ".bench_build" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source-id", source_id(),
           "--trace-out", str(traces / f"{workload}-seed{seed}.csv"),
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, lines, result


def run(args):
    build()
    code, lines, result = run_binary(args.workload, args.seed, args.seconds,
                                     args.trace)
    if result is None:
        print("\n".join(lines))
        die(f"{args.workload} printed no result (exit code {code})")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(code)


def check_metrics(result, specs, where):
    """Problems with `result`'s metrics against BENCHMARK.json's `specs`."""
    problems = []
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        problems.append(f"{where}: metrics {sorted(metrics)} differ from "
                        f"{sorted(s['name'] for s in specs)}")
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            continue
        if m.get("unit") != spec["unit"]:
            problems.append(f"{where}: {spec['name']} has unit "
                            f"{m.get('unit')!r}, not {spec['unit']!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {spec['name']} is not a number")
    return problems


def selftest():
    contract = ROOT / "BENCHMARK.json"
    if not contract.is_file():
        die("no BENCHMARK.json at the repository root")
    spec = json.loads(contract.read_text())
    build()
    problems = []
    for workload in WORKLOADS:
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            code, _, result = run_binary(workload, 1, 2, trace)
            if result is None or code != 0 or not result["correct"]:
                problems.append(f"{where}: exit code {code}, result {result}")
                continue
            problems += check_metrics(result, specs, where)
            if trace == 0:
                problems += [f"{where}: {n} is not positive"
                             for n, m in result["metrics"].items()
                             if m["value"] <= 0]
            print(f"ok   {where}", flush=True)
    for fault in ("corrupt", "drop"):
        where = f"chain4-1k --inject {fault}"
        code, _, result = run_binary("chain4-1k", 1, 1, 0, ("--inject", fault))
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{where}: the check did not fail "
                            f"(exit code {code}, result {result})")
        else:
            print(f"ok   {where} fails the run ({result['failed']} failed)",
                  flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
