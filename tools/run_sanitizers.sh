#!/usr/bin/env bash
# Builds the whole tree twice — once under ASan+UBSan, once under TSan —
# and runs the full ctest suite in each (README "Verification recipe").
#
#   tools/run_sanitizers.sh [address|thread]   # default: both
set -euo pipefail
cd "$(dirname "$0")/.."

FLAVOURS=${1:-"address thread"}
JOBS=$(nproc)

for flavour in $FLAVOURS; do
  BUILD=build-${flavour/address/asan}
  BUILD=${BUILD/thread/tsan}
  echo "=== $flavour sanitizer -> $BUILD ==="
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DIOV_SANITIZE="$flavour" >/dev/null
  cmake --build "$BUILD" -j "$JOBS"
  # Second-guess timer slop under sanitizer overhead, not correctness:
  # the suites' own timing tolerances already absorb it. The scenario
  # tier (churn harness, streaming-churn smoke) runs here too; only the
  # minutes-scale `slow` runs (the 10k-viewer determinism test) are
  # excluded — sanitizer overhead would push them past any sane timeout.
  # Every real-socket suite (test_reactor, test_peer_link and the engine
  # suites) runs its engines and links on the shared epoll reactor: the
  # thread flavour is the proof that nothing of a node runs off its
  # worker — driver calls (post, snapshot, weights) reach it only through
  # Worker::submit/call.
  (cd "$BUILD" && ctest --output-on-failure -LE slow -j "$JOBS")
done
echo "sanitizer runs complete: $FLAVOURS"
