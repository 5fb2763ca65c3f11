#!/usr/bin/env bash
# Fails when code under src/ could block a reactor worker or run off the
# reactor: a std::thread outside src/net/reactor/ (the worker pool is
# the only place a thread may start) or a poll() anywhere (a worker
# waits in epoll_wait and nowhere else). Prints each offending line.
#
#   tools/check_reactor_only.sh [SRC_DIR]   # default: the repo's src/
set -euo pipefail
src="${1:-$(dirname "$0")/../src}"
src="${src%/}"

status=0
threads="$(grep -rnE --include='*.h' --include='*.cpp' 'std::thread\b' \
             "$src" | grep -v "^$src/net/reactor/" || true)"
if [[ -n "$threads" ]]; then
  echo "check_reactor_only: std::thread outside $src/net/reactor/:" >&2
  echo "$threads" >&2
  status=1
fi
polls="$(grep -rnE --include='*.h' --include='*.cpp' '<poll\.h>|::poll\(' \
           "$src" || true)"
if [[ -n "$polls" ]]; then
  echo "check_reactor_only: poll() in $src:" >&2
  echo "$polls" >&2
  status=1
fi
[[ $status -eq 0 ]] && echo "check_reactor_only: ok ($src)"
exit $status
