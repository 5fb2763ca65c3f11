#include "message/buffer.h"

namespace iov {

namespace {

// xorshift32 keeps the pattern cheap yet position dependent.
class PatternGen {
 public:
  explicit PatternGen(u32 seed) : x_(seed * 0x9e3779b9u + 0x85ebca6bu) {}
  u8 next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 17;
    x_ ^= x_ << 5;
    return static_cast<u8>(x_);
  }

 private:
  u32 x_;
};

}  // namespace

std::vector<u8> Buffer::pattern_bytes(std::size_t n, u32 seed) {
  std::vector<u8> bytes(n);
  PatternGen gen(seed);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = gen.next();
  return bytes;
}

bool Buffer::matches_pattern(const u8* data, std::size_t n, u32 seed) {
  PatternGen gen(seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != gen.next()) return false;
  }
  return true;
}

BufferPtr Buffer::pattern(std::size_t n, u32 seed) {
  return wrap(pattern_bytes(n, seed));
}

BufferPtr Buffer::slice(std::shared_ptr<const void> owner, const u8* data,
                        std::size_t n) {
  if (n == 0) return empty_buffer();
  auto out = std::make_shared<Buffer>();
  out->owner_ = std::move(owner);
  out->data_ = data;
  out->size_ = n;
  return out;
}

BufferPtr Buffer::empty_buffer() {
  static const BufferPtr kEmpty = std::make_shared<const Buffer>();
  return kEmpty;
}

}  // namespace iov
