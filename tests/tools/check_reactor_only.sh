#!/usr/bin/env bash
# Checks tools/check_reactor_only.sh itself: a tree with a thread or a
# poll() in the wrong place fails it, naming the line; a tree with both
# where they belong (threads in net/reactor/, std::this_thread anywhere)
# passes.
#
#   tests/tools/check_reactor_only.sh REPO_ROOT
set -euo pipefail
root="${1:-$(dirname "$0")/../..}"
lint="$root/tools/check_reactor_only.sh"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "check_reactor_only selftest: $*" >&2
  exit 1
}

# clean tree: passes.
mkdir -p "$dir/ok/net/reactor" "$dir/ok/engine"
echo 'std::thread worker_;' >"$dir/ok/net/reactor/reactor.h"
echo 'void nap() { std::this_thread::yield(); }' >"$dir/ok/engine/engine.cpp"
bash "$lint" "$dir/ok" >/dev/null || fail "a clean tree was rejected"

# expect_fail TREE PATTERN: the lint rejects TREE and names PATTERN.
expect_fail() {
  local out status=0
  out="$(bash "$lint" "$1" 2>&1)" || status=$?
  [[ $status -eq 1 ]] || fail "$1 passed, expected a failure"
  grep -q -- "$2" <<<"$out" || fail "$1: output does not name '$2': $out"
}

mkdir -p "$dir/thread/observer"
cp -r "$dir/ok/." "$dir/thread/"
echo '  std::thread thread_;' >"$dir/thread/observer/observer.h"
expect_fail "$dir/thread" "observer/observer.h:1:"

mkdir -p "$dir/pollh/net"
echo '#include <poll.h>' >"$dir/pollh/net/socket.cpp"
expect_fail "$dir/pollh" "net/socket.cpp:1:"

mkdir -p "$dir/pollcall/net/reactor"
printf 'int f(pollfd* p) {\n  return ::poll(p, 1, 0);\n}\n' \
  >"$dir/pollcall/net/reactor/reactor.cpp"
expect_fail "$dir/pollcall" "reactor.cpp:2:"

echo "check_reactor_only selftest: ok"
