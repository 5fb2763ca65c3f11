// What the benchmark reads about its own process from the kernel: CPU
// time, per-thread scheduler statistics, memory, threads and fds.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using iov::i64;
using iov::u64;

/// User + system CPU time of the whole process (getrusage), ns.
i64 process_cpu_ns();

/// One thread's scheduler counters (/proc/self/task/<tid>/{schedstat,
/// status}).
struct ThreadStat {
  int tid = 0;
  u64 run_ns = 0;     ///< time on a CPU
  u64 wait_ns = 0;    ///< time runnable but waiting on a run queue
  u64 voluntary = 0;  ///< voluntary context switches: blocks, so wakeups
};
std::vector<ThreadStat> thread_stats();

/// A numeric field of /proc/self/status ("VmRSS", "Threads"), or -1.
long status_field(const char* key);

std::size_t open_fds();

/// nproc, kernel, compiler, build type, `source`, load average.
std::string host_fingerprint(const std::string& source);

}  // namespace perfbench
