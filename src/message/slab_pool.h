// Recycled, size-classed payload slabs (DESIGN.md §8).
//
// The receive path needs a destination buffer for every recv: a chunk
// that many small payloads are sliced from, or a payload-sized buffer
// per large frame. Allocating one from the heap costs an allocation plus
// a full zero-fill (std::vector value-initializes), which is what made
// the 64 KB wire tier copy- and allocation-bound and a low-rate link pay
// 64 KB per message. A
// SlabPool keeps freelists of recycled byte slabs in power-of-two size
// classes: the steady state acquires a warm slab (no allocation, no
// zeroing, the previous payload's bytes are simply overwritten by the
// next recv) and releases it back to the freelist when the last
// reference drops.
//
// A slab is handed out as a SlabPtr (shared_ptr with a pool-returning
// deleter), so it can be threaded straight into Buffer::slice as the
// keep-alive owner: the payload travels zero-copy through the switch to
// every downstream link, and the slab rejoins the freelist exactly when
// the last BufferPtr releases it — from whichever thread that happens
// on. Slabs may outlive the pool: the deleter shares ownership of the
// pool core, so releases after the pool is destroyed simply free.
//
// Locking: one mutex per size class, held only for a freelist push/pop
// (no allocation under the lock on the hit path). Hit/miss counts are
// relaxed atomics, optionally mirrored into obs::Counter handles so the
// engine can publish them (iov_pool_slab_acquires_total).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace iov {

/// A recycled byte slab. Capacity is fixed at the slab's size class;
/// the bytes are whatever the previous user left (never zeroed on
/// reuse) — callers overwrite before reading.
class Slab {
 public:
  explicit Slab(std::size_t capacity, std::size_t class_idx)
      : bytes_(capacity), class_idx_(class_idx) {}

  u8* data() { return bytes_.data(); }
  const u8* data() const { return bytes_.data(); }
  std::size_t capacity() const { return bytes_.size(); }
  std::size_t class_idx() const { return class_idx_; }

 private:
  std::vector<u8> bytes_;
  std::size_t class_idx_;
};

using SlabPtr = std::shared_ptr<Slab>;

class SlabPool {
 public:
  /// Smallest slab handed out; requests below round up to this.
  static constexpr std::size_t kMinSlabBytes = 4 * 1024;
  /// Largest slab class; must cover Msg::kMaxPayload (16 MB).
  static constexpr std::size_t kMaxSlabBytes = 16 * 1024 * 1024;
  /// Power-of-two classes from kMinSlabBytes to kMaxSlabBytes.
  static constexpr std::size_t kClasses = 13;
  /// Free slabs retained per class; releases beyond this cap free the
  /// slab instead of hoarding it (bounds idle memory at
  /// sum(class_size * kMaxFreePerClass), dominated by what the workload
  /// actually cycles). A node's reader, switch and writer take turns on
  /// one reactor worker, so its live slab count swings by up to a few
  /// buffers' worth when the worker is preempted; at 32 those swings fell
  /// off the freelist (64 KB chain hit rate 0.93-0.96 under CPU hogs,
  /// 0.99 at 256).
  static constexpr std::size_t kMaxFreePerClass = 256;

  SlabPool();

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// A slab with capacity >= n (n <= kMaxSlabBytes; larger requests are
  /// a programming error and assert). The slab returns to the pool when
  /// the last SlabPtr copy — including copies held as Buffer::slice
  /// owners — is released. Thread safe.
  SlabPtr acquire(std::size_t n);

  /// Acquires recycled / freshly allocated, respectively.
  u64 hits() const { return core_->hits.load(std::memory_order_relaxed); }
  u64 misses() const {
    return core_->misses.load(std::memory_order_relaxed);
  }

  /// Bytes currently parked on the freelists.
  std::size_t free_bytes() const {
    return core_->free_bytes.load(std::memory_order_relaxed);
  }

  /// Mirrors hit/miss/free-bytes into registry handles (all optional;
  /// pass nullptr to skip). The handles must outlive the pool *and*
  /// every outstanding slab.
  void set_metrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Gauge* free_bytes);

  /// The size class index serving a request of `n` bytes.
  static std::size_t class_for(std::size_t n);
  /// Slab capacity of class `idx`.
  static std::size_t class_bytes(std::size_t idx);

 private:
  // Shared with every outstanding slab's deleter, so a slab released
  // after the pool is gone still has a freelist (or frees cleanly once
  // the last deleter drops the core).
  struct Core {
    struct ClassList {
      std::mutex mu;
      std::vector<std::unique_ptr<Slab>> free;
    };
    std::array<ClassList, kClasses> classes;
    std::atomic<u64> hits{0};
    std::atomic<u64> misses{0};
    std::atomic<std::size_t> free_bytes{0};
    std::atomic<obs::Counter*> hit_counter{nullptr};
    std::atomic<obs::Counter*> miss_counter{nullptr};
    std::atomic<obs::Gauge*> free_gauge{nullptr};

    void release(std::unique_ptr<Slab> slab);
  };

  std::shared_ptr<Core> core_;
};

}  // namespace iov
