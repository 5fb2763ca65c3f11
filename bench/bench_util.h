// Shared helpers for the figure/table reproduction harnesses: consistent
// headers and aligned table printing, so every bench prints rows in the
// shape the paper reports (see EXPERIMENTS.md for the mapping).
#pragma once

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"

namespace iov::bench {

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf(
      "\n==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf(
      "==============================================================\n");
}

inline void print_row(const std::vector<std::string>& cells,
                      std::size_t width = 16) {
  std::printf("%s\n", format_row(cells, width).c_str());
}

/// Bytes/second rendered as "N.N" kilobytes/second.
inline std::string kb(double bytes_per_sec) {
  return strf("%.1f", bytes_per_sec / 1000.0);
}

/// Bytes/second rendered as "N.NN" megabytes/second.
inline std::string mb(double bytes_per_sec) {
  return strf("%.2f", bytes_per_sec / 1e6);
}

/// The host a BENCH_*.json came from, as JSON object members (no braces):
/// nproc, kernel, compiler, build type and git sha, so numbers are only
/// ever compared between runs of one host. The build type and source
/// directory come from the IOV_BUILD_TYPE / IOV_SOURCE_DIR compile
/// definitions when the bench target sets them.
inline std::string host_fingerprint_json() {
  utsname uts{};
  const std::string kernel = ::uname(&uts) == 0 ? uts.release : "unknown";
#ifdef IOV_BUILD_TYPE
  const std::string build_type = IOV_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  std::string sha = "unknown";
#ifdef IOV_SOURCE_DIR
  const std::string cmd =
      std::string("git -C '") + IOV_SOURCE_DIR +
      "' describe --always --dirty --abbrev=12 2>/dev/null";
  if (std::FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
        sha.pop_back();
      }
    }
    ::pclose(p);
  }
#endif
  return strf(
      "\"host\": {\"nproc\": %ld, \"kernel\": \"%s\", "
      "\"compiler\": \"GNU %d.%d.%d\", \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\"}",
      ::sysconf(_SC_NPROCESSORS_ONLN), kernel.c_str(), __GNUC__,
      __GNUC_MINOR__, __GNUC_PATCHLEVEL__, build_type.c_str(), sha.c_str());
}

}  // namespace iov::bench
