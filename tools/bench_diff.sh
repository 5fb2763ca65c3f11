#!/usr/bin/env bash
# Compares two sets of captured perfbench runs, metric by metric.
#
#   tools/bench_diff.sh BEFORE.txt AFTER.txt [BENCHMARK.json]
#
# Each file holds the stdout of one or more `python3 perfbench/run.py`
# runs, concatenated (e.g. `run.py ... >> before.txt` once per seed). A
# run is its `host {...}` line, its `workload NAME: ...` line and its
# final JSON result line; everything else is ignored.
#
# The comparison is refused (exit 2) unless every run in both files comes
# from the same host: the fingerprints must agree in nproc, kernel,
# compiler and build type (the source id and load average may differ).
#
# For every workload and metric it prints the median of each side, the
# relative change (after/before - 1), the bound BENCHMARK.json gives an
# end-to-end metric, and a verdict: "better", "worse, within bound", or
# "WORSE than bound" when the change goes the wrong way by more than the
# bound. Per-layer metrics have no bound; their verdict only says which
# way they moved. The exit code is 1 when any metric is worse than its
# bound, else 0.
# The script only reads run output; it runs nothing.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 BEFORE.txt AFTER.txt [BENCHMARK.json]" >&2
  exit 2
fi
spec="${3:-$(dirname "$0")/../BENCHMARK.json}"

exec python3 - "$1" "$2" "$spec" <<'PY'
import json
import statistics
import sys

HOST_KEYS = ("nproc", "kernel", "compiler", "build_type")


def load(path):
    """Returns (hosts, {workload: [metrics dict per run]})."""
    hosts, runs = [], {}
    host = workload = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("host "):
                host = json.loads(line[5:])
                hosts.append(host)
            elif line.startswith("workload "):
                workload = line[len("workload "):].split(":", 1)[0]
            elif line.startswith("{") and '"metrics"' in line:
                if host is None or workload is None:
                    sys.exit(f"bench_diff: {path}: a result without its "
                             "host and workload lines")
                result = json.loads(line)
                runs.setdefault(workload, []).append(
                    {k: v["value"] for k, v in result["metrics"].items()})
                host = workload = None
    if not runs:
        sys.exit(f"bench_diff: {path}: no perfbench results")
    return hosts, runs


before_path, after_path, spec_path = sys.argv[1:4]
hosts_a, runs_a = load(before_path)
hosts_b, runs_b = load(after_path)

fingerprints = {tuple(h.get(k) for k in HOST_KEYS) for h in hosts_a + hosts_b}
if len(fingerprints) != 1:
    print("bench_diff: refusing to compare runs from different hosts:",
          file=sys.stderr)
    for fp in sorted(fingerprints, key=str):
        print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, fp)),
              file=sys.stderr)
    sys.exit(2)

with open(spec_path) as f:
    spec = json.load(f)
metrics = {}
for kind in ("end_to_end", "per_layer"):
    for m in spec.get(kind, []):
        metrics[m["name"]] = m

print("host: " + ", ".join(f"{k}={v}" for k, v in
                           zip(HOST_KEYS, fingerprints.pop())))
header = (f"{'workload':<12} {'metric':<32} {'n':>5} {'before':>14} "
          f"{'after':>14} {'change':>9} {'bound':>7}  verdict")
print(header)
print("-" * len(header))
worse = 0
for workload in sorted(set(runs_a) | set(runs_b)):
    a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
    names = [n for n in metrics if any(n in r for r in a_runs + b_runs)]
    for name in names:
        # perfbench prints -1 for a metric it could not measure.
        a = [r[name] for r in a_runs if r.get(name, -1) != -1]
        b = [r[name] for r in b_runs if r.get(name, -1) != -1]
        count = f"{len(a)}/{len(b)}"
        if not a or not b:
            print(f"{workload:<12} {name:<32} {count:>5} {'-':>14} {'-':>14} "
                  f"{'-':>9} {'-':>7}  not measured on both sides")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = mb / ma - 1 if ma != 0 else (0.0 if mb == 0 else float("inf"))
        m = metrics[name]
        sign = 1 if m["better"] == "higher" else -1
        bound = m.get("bound")
        if change * sign > 0:
            verdict = "better"
        elif change * sign == 0:
            verdict = "-"
        elif bound is None:
            verdict = "worse (no bound)"
        elif -change * sign > bound:
            verdict = "WORSE than bound"
            worse += 1
        else:
            verdict = "worse, within bound"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:<12} {name:<32} {count:>5} {ma:>14.6g} {mb:>14.6g} "
              f"{change:>+9.1%} {bound_text:>7}  {verdict}")
print(f"{worse} metric(s) worse than their bound")
sys.exit(1 if worse else 0)
PY
