#!/usr/bin/env bash
# Checks tools/bench_diff.sh on synthetic perfbench output: medians,
# relative change and bound verdicts, and the refusal to compare runs
# whose host fingerprints differ.
#
#   tests/tools/check_bench_diff.sh REPO_ROOT
set -euo pipefail
root="${1:-$(dirname "$0")/../..}"
diff_tool="$root/tools/bench_diff.sh"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# run FILE KERNEL MSGS_PER_S P50_MS CPU_US: appends one chain4-1k run.
run() {
  cat >>"$1" <<EOF
host {"nproc": 4, "kernel": "$2", "compiler": "GNU 12.2.0", "build_type": "RelWithDebInfo", "source": "git-x", "loadavg": [0.10, 0.20, 0.30]}
workload chain4-1k: 4 nodes, fanout 1, 1024 B, back-to-back, seed 1
round 0: ignored
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"msgs_per_s": {"value": $3, "unit": "msgs/s"}, "latency_p50_ms": {"value": $4, "unit": "ms"}, "cpu_us_per_hop": {"value": $5, "unit": "us"}, "setup_s": {"value": -1, "unit": "s"}}}
EOF
}

fail() {
  echo "check_bench_diff: $*" >&2
  exit 1
}

run "$dir/before" 6.1 100 4.0 1.0
run "$dir/before" 6.1 120 5.0 1.0
run "$dir/before" 6.1 110 6.0 1.0
run "$dir/after" 6.1 150 4.5 1.1
run "$dir/after" 6.1 130 9.0 1.1

status=0
out="$(bash "$diff_tool" "$dir/before" "$dir/after" "$root/BENCHMARK.json")" ||
  status=$?
echo "$out"
[[ $status -eq 1 ]] || fail "expected exit 1 (p50 worse than its bound), got $status"
# msgs/s: median 110 -> 140 (+27.3%), higher is better.
grep -Eq '^chain4-1k +msgs_per_s +3/2 +110 +140 +\+27\.3% +0\.20  better$' \
  <<<"$out" || fail "msgs_per_s row"
# p50: median 5 -> 6.75 (+35.0%), lower is better, bound 0.25.
grep -Eq '^chain4-1k +latency_p50_ms +3/2 +5 +6\.75 +\+35\.0% +0\.25  WORSE than bound$' \
  <<<"$out" || fail "latency_p50_ms row"
# cpu: 1 -> 1.1 (+10.0%), bound 0.25.
grep -Eq '^chain4-1k +cpu_us_per_hop +3/2 +1 +1\.1 +\+10\.0% +0\.25  worse, within bound$' \
  <<<"$out" || fail "cpu_us_per_hop row"
grep -Eq '^chain4-1k +setup_s +0/0 .*not measured on both sides$' \
  <<<"$out" || fail "setup_s row"

run "$dir/other" 6.2 150 4.5 1.0
status=0
bash "$diff_tool" "$dir/before" "$dir/other" "$root/BENCHMARK.json" \
  >/dev/null 2>"$dir/err" || status=$?
[[ $status -eq 2 ]] || fail "expected exit 2 for different kernels, got $status"
grep -q "refusing to compare runs from different hosts" "$dir/err" ||
  fail "no refusal message"
echo "check_bench_diff: OK"
