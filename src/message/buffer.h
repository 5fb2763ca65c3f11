// Immutable, reference-counted payload storage.
//
// This is the heart of the paper's "zero copying of messages" property
// (§2.2): a payload is allocated once when a message enters the node (or
// is produced by the application) and only its reference travels from the
// receiving socket, through the engine switch, to every outgoing socket.
// Copy-on-write never happens implicitly; algorithms that need a mutable
// payload must clone explicitly (Msg::clone_with_payload).
//
// A Buffer either owns its bytes (a vector) or is a *slice*: a view into
// storage kept alive by a shared owner. Slices are how the bulk frame
// decoder (net::FrameReader) hands out many payloads from one recv'd
// chunk without a per-message allocation — the chunk is a recycled
// SlabPool slab that stays alive until the last slice referencing it is
// released, and then rejoins the pool's freelist.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace iov {

class Buffer;
using BufferPtr = std::shared_ptr<const Buffer>;

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<u8> bytes)
      : bytes_(std::move(bytes)), data_(bytes_.data()), size_(bytes_.size()) {}

  Buffer(const Buffer& other) { assign(other); }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) assign(other);
    return *this;
  }

  // Without these, every Buffer "move" silently fell back to the copy
  // constructor above — a deep copy of the payload vector.
  Buffer(Buffer&& other) noexcept { steal(std::move(other)); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) steal(std::move(other));
    return *this;
  }

  const u8* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Payload viewed as text (used by trace and report messages).
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  /// The payload as an owned vector — always the viewed bytes, for
  /// vector-backed buffers and slices alike. (This used to return a
  /// reference to the owned storage, which is silently *empty* for a
  /// slice; every caller now gets the bytes it can see via data().)
  std::vector<u8> bytes() const { return {data_, data_ + size_}; }

  /// True when this buffer is a view into externally owned storage.
  bool is_slice() const { return owner_ != nullptr; }

  /// Wraps a byte vector (moved) without copying.
  static BufferPtr wrap(std::vector<u8> bytes) {
    return std::make_shared<const Buffer>(std::move(bytes));
  }

  /// Copies raw memory into a fresh buffer.
  static BufferPtr copy(const void* data, std::size_t n) {
    std::vector<u8> bytes(n);
    if (n > 0) std::memcpy(bytes.data(), data, n);
    return wrap(std::move(bytes));
  }

  /// Copies a string payload.
  static BufferPtr from_string(std::string_view s) {
    return copy(s.data(), s.size());
  }

  /// A zero-copy view of `n` bytes at `data`, keeping `owner` alive for
  /// the buffer's lifetime. `data` must point into storage owned (directly
  /// or transitively) by `owner` and must stay immutable.
  static BufferPtr slice(std::shared_ptr<const void> owner, const u8* data,
                         std::size_t n);

  /// A buffer of `n` bytes filled with a deterministic pattern derived
  /// from `seed`; the apps module uses this for payload integrity checks.
  static BufferPtr pattern(std::size_t n, u32 seed);

  /// The same pattern as a plain vector, for callers that stamp extra
  /// fields into the bytes before wrapping (avoids pattern() + a deep
  /// copy of the freshly built buffer).
  static std::vector<u8> pattern_bytes(std::size_t n, u32 seed);

  /// True when the `n` bytes at `data` are pattern(n, seed); checks in
  /// place, with no allocation.
  static bool matches_pattern(const u8* data, std::size_t n, u32 seed);

  /// The shared empty buffer.
  static BufferPtr empty_buffer();

 private:
  void assign(const Buffer& other) {
    bytes_ = other.bytes_;
    owner_ = other.owner_;
    data_ = owner_ ? other.data_ : bytes_.data();
    size_ = other.size_;
  }

  void steal(Buffer&& other) noexcept {
    bytes_ = std::move(other.bytes_);
    owner_ = std::move(other.owner_);
    // A moved vector keeps its allocation, but recompute data_ anyway so
    // an empty (inline) vector can't leave a dangling pointer.
    data_ = owner_ ? other.data_ : bytes_.data();
    size_ = other.size_;
    other.bytes_.clear();
    other.owner_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }

  std::vector<u8> bytes_;              ///< owned storage (empty for slices)
  std::shared_ptr<const void> owner_;  ///< keepalive for sliced storage
  const u8* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace iov
