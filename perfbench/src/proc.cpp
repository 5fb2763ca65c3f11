#include "proc.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

i64 timeval_ns(const timeval& tv) {
  return static_cast<i64>(tv.tv_sec) * 1'000'000'000 +
         static_cast<i64>(tv.tv_usec) * 1'000;
}

/// Value of the "key:" line of a /proc status file, or -1.
long field_of(const char* path, const char* key) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1;
  const std::size_t klen = std::strlen(key);
  char line[256];
  long value = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      value = std::strtol(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

i64 process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
}

std::vector<ThreadStat> thread_stats() {
  std::vector<ThreadStat> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    ThreadStat t;
    t.tid = std::atoi(e->d_name);
    char path[96];
    std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", t.tid);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) continue;  // the thread exited meanwhile
    unsigned long long run = 0;
    unsigned long long wait = 0;
    const int got = std::fscanf(f, "%llu %llu", &run, &wait);
    std::fclose(f);
    if (got != 2) continue;
    t.run_ns = run;
    t.wait_ns = wait;
    std::snprintf(path, sizeof(path), "/proc/self/task/%d/status", t.tid);
    const long vol = field_of(path, "voluntary_ctxt_switches");
    t.voluntary = vol > 0 ? static_cast<u64>(vol) : 0;
    out.push_back(t);
  }
  ::closedir(dir);
  return out;
}

long status_field(const char* key) { return field_of("/proc/self/status", key); }

std::size_t open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n > 3 ? n - 3 : 0;  // ".", "..", the DIR's own fd
}

std::string host_fingerprint(const std::string& source) {
  utsname u{};
  ::uname(&u);
  double load[3] = {-1, -1, -1};
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf %lf %lf", &load[0], &load[1], &load[2]) != 3) {
      load[0] = load[1] = load[2] = -1;
    }
    std::fclose(f);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"kernel\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"source\": \"%s\", "
                "\"loadavg\": [%.2f, %.2f, %.2f]}",
                ::sysconf(_SC_NPROCESSORS_ONLN), u.release,
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, source.c_str(),
                load[0], load[1], load[2]);
  return buf;
}

}  // namespace perfbench
