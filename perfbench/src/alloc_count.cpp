// Replaces the global operator new and delete so that the traced run can
// count the allocations every thread of the process makes
// (message.allocs_per_hop). Counting is off unless turned on, and the
// counters are sharded per thread so that counting does not serialize
// the threads it measures.
#include <atomic>
#include <cstdlib>
#include <new>

#include "trace.h"

namespace {

constexpr int kShards = 64;

struct alignas(64) Shard {
  std::atomic<perfbench::u64> n{0};
};

Shard g_shards[kShards];
std::atomic<bool> g_on{false};
std::atomic<int> g_next_shard{0};

void count() {
  if (!g_on.load(std::memory_order_relaxed)) return;
  thread_local const int shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  g_shards[shard].n.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  count();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_nothrow(std::size_t n) noexcept {
  count();
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

namespace perfbench {

void count_allocs(bool on) { g_on.store(on, std::memory_order_relaxed); }

u64 allocs_counted() {
  u64 n = 0;
  for (const auto& s : g_shards) n += s.n.load(std::memory_order_relaxed);
  return n;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
