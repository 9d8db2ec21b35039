// Byte-level wire serialization.
//
// Every protocol message is encoded to bytes before it enters the network
// fabric, so message sizes — the quantity that drives all bandwidth effects
// in the paper — are measured, never estimated. Integers are little-endian
// fixed width; sequences are length-prefixed with a varint.
//
// ByteWriter encodes directly into a chunk from the thread-local BufferPool
// and hands the result off as a zero-copy BufferRef (finish()); the vector
// accessors (take/view) exist for tests and cold paths.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/buffer.hpp"

namespace hg::net {

class ByteWriter {
 public:
  // Always draws from the calling thread's pool — chunks recycle through
  // BufferPool::local() on release, so that is the only pool that can ever
  // get them back.
  explicit ByteWriter(std::size_t reserve = 64)
      : chunk_(BufferPool::local().acquire(reserve < 1 ? 1 : reserve)) {}

  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }

  // LEB128-style unsigned varint (1 byte for values < 128).
  void varint(std::uint64_t v) {
    std::uint8_t tmp[10];
    std::size_t n = 0;
    while (v >= 0x80) {
      tmp[n++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    tmp[n++] = static_cast<std::uint8_t>(v);
    append(tmp, n);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  // Hands the encoded bytes off as a zero-copy pooled reference. The writer
  // must not be written to afterwards.
  [[nodiscard]] BufferRef finish() {
    HG_ASSERT(chunk_);
    chunk_.ctl_->size = size_;
    return BufferRef(std::move(chunk_));  // hands off the writer's reference
  }

  // Copying accessors for tests and cold paths.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    HG_ASSERT(chunk_);
    return {chunk_.data(), chunk_.data() + size_};
  }
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    HG_ASSERT(chunk_);
    return {chunk_.data(), static_cast<std::size_t>(size_)};
  }

 private:
  // The writer is the chunk's only owner until finish(), so it alone may
  // write into it (see ChunkRef on immutability).
  void append(const void* p, std::size_t n) {
    HG_ASSERT(chunk_);   // finish() ends the writer's lifetime
    if (n == 0) return;  // empty spans may carry a null pointer
    if (size_ + n > chunk_.ctl_->capacity) grow(size_ + n);
    std::memcpy(chunk_.ctl_->data() + size_, p, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  void grow(std::size_t needed) {
    const std::size_t doubled = 2 * std::size_t{chunk_.ctl_->capacity};
    ChunkRef bigger(BufferPool::local().acquire(needed > doubled ? needed : doubled));
    std::memcpy(bigger.ctl_->data(), chunk_.data(), size_);
    chunk_ = std::move(bigger);
  }

  ChunkRef chunk_;
  std::uint32_t size_ = 0;
};

// Non-owning reader over a received buffer. All accessors return
// std::nullopt on truncation or corruption instead of reading out of
// bounds; protocol handlers treat a malformed datagram as a drop (as a UDP
// stack would).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() { return fixed<std::uint8_t>(); }
  [[nodiscard]] std::optional<std::uint32_t> u32() { return fixed<std::uint32_t>(); }
  [[nodiscard]] std::optional<std::uint64_t> u64() { return fixed<std::uint64_t>(); }
  [[nodiscard]] std::optional<std::int64_t> i64() { return fixed<std::int64_t>(); }

  // Rejects non-terminating varints, encodings longer than 10 bytes, and
  // 10-byte encodings whose final byte would overflow 64 bits — a malformed
  // prefix can neither wrap silently nor walk past the buffer.
  [[nodiscard]] std::optional<std::uint64_t> varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (pos_ < data_.size()) {
      const std::uint8_t b = data_[pos_++];
      if (shift == 63 && (b & 0xfe) != 0) return std::nullopt;  // > 64 bits
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) return std::nullopt;  // > 10 bytes
    }
    return std::nullopt;  // truncated
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  [[nodiscard]] std::optional<T> fixed() {
    if (sizeof(T) > remaining()) return std::nullopt;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace hg::net
