// Reference-counted, pooled wire buffers — the allocation substrate of the
// message path.
//
// Every encoded datagram lives in a chunk drawn from a thread-local
// BufferPool: size-class slabs (header + payload in one allocation) recycled
// through per-class free lists, so the steady-state send→deliver path never
// touches the heap. A ChunkRef is an 8-byte handle on one whole chunk and
// owns its non-atomic refcount; a BufferRef is a ChunkRef plus an (offset,
// length) slice of it. Fan-out to many peers, batched serves, payload
// storage, and payload forwarding all share the same bytes without copying
// or hashing.
//
// Threading model: simulations are single-threaded per replica (concurrent
// seed replicas each run start to end on one thread), so refcounts are plain
// integers. A chunk released on a thread other than its allocator (e.g. a
// finished Experiment destroyed on the main thread, even after its worker
// thread has exited) is freed directly instead of being pushed onto a
// foreign free list; the owner pool pointer is only ever compared against
// the releasing thread's own pool, never dereferenced.
//
// In the sharded engine (P >= 2), the same rule is what keeps the non-atomic
// refcounts sound: every chunk is confined to the partition (and thus the
// worker thread) whose pool allocated it. NetworkFabric never moves a ref
// across partitions — a message crossing a partition boundary (header and
// body) is deep-copied into the destination partition's pool during the
// barrier exchange, while workers are parked (see fabric.cpp). WorkerPool's
// static index→worker assignment makes partition→thread stable for the life
// of a run, so a chunk's allocating thread services it for every epoch.
//
// Nothing in this header can check that contract at compile time (the pool
// is thread-local by construction, not by annotation), so it is enforced
// dynamically: the TSan CI job runs the sharded-engine and parallel
// determinism suites at HG_WORKERS=4, where a ref leaking across the
// boundary shows up as a data race on `refs`. The determinism linter
// separately keeps address-ordered logic out of the exchange path, so the
// import order stays canonical (src partition, index), never pointer-valued.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace hg::net {

class BufferPool;

namespace detail {

// Chunk header; the payload bytes follow immediately after.
struct BufferCtl {
  BufferPool* owner;       // allocating thread's pool (identity check only)
  BufferCtl* next_free;    // intrusive free-list link while pooled
  std::uint32_t refs;
  std::uint32_t capacity;  // payload capacity in bytes
  std::uint32_t size;      // payload bytes written
  std::uint8_t size_class; // index into the pool's class table; 0xff = unpooled

  [[nodiscard]] std::uint8_t* data() {
    return reinterpret_cast<std::uint8_t*>(this) + sizeof(BufferCtl);
  }
  [[nodiscard]] const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this) + sizeof(BufferCtl);
  }
};

}  // namespace detail

class BufferPool {
 public:
  // Size classes are powers of two from 64 B (headers, small control
  // messages) to 256 KiB (large serve batches); bigger requests fall back to
  // a one-off unpooled allocation.
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxClassBytes = 256 * 1024;
  static constexpr std::uint8_t kUnpooledClass = 0xff;

  struct Stats {
    std::uint64_t chunk_allocs = 0;    // chunks obtained from the heap
    std::uint64_t pool_hits = 0;       // chunks recycled from a free list
    std::uint64_t pool_returns = 0;    // chunks pushed back onto a free list
    std::uint64_t foreign_frees = 0;   // released off-thread: freed, not pooled
    std::uint64_t unpooled_frees = 0;  // oversized chunks released: freed
    std::uint64_t oversized = 0;       // requests beyond kMaxClassBytes
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  // The calling thread's pool. All implicit allocations (ByteWriter,
  // BufferRef::copy_of) draw from here.
  [[nodiscard]] static BufferPool& local();

  // A chunk with capacity >= n, refs == 1, size == 0.
  [[nodiscard]] detail::BufferCtl* acquire(std::size_t n);

  // Called when a chunk's refcount hits zero (from any thread).
  static void recycle(detail::BufferCtl* ctl);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Chunks handed out by this thread minus chunks released on it. With one
  // thread allocating and releasing, this is the number of chunks alive; a
  // thread that releases chunks other threads allocated can read negative.
  [[nodiscard]] std::int64_t live_chunks() const {
    return static_cast<std::int64_t>(stats_.chunk_allocs + stats_.pool_hits) -
           static_cast<std::int64_t>(stats_.pool_returns + stats_.foreign_frees +
                                     stats_.unpooled_frees);
  }

 private:
  static constexpr std::size_t kClasses = 13;  // 64 << 12 == 256 KiB

  [[nodiscard]] static std::uint8_t class_for(std::size_t n);
  [[nodiscard]] static std::size_t class_bytes(std::uint8_t cls) {
    return kMinClassBytes << cls;
  }

  detail::BufferCtl* free_lists_[kClasses] = {};
  Stats stats_;
};

// Owning handle on one whole pooled chunk: the bytes [0, size) written when
// the chunk was filled. Eight bytes; copies bump the chunk's non-atomic
// refcount, and the last owner to let go returns it to the pool. This is
// the only place the refcount is touched (BufferRef and ByteWriter hold a
// ChunkRef).
//
// A chunk is immutable once it is shared. Payload datagrams carry the
// sender's stored chunk as their body (see Datagram), so the same bytes sit
// in the sender's store, in flight, and in every receiver's store at once:
// nobody may write through a ChunkRef, and the API gives no way to.
class ChunkRef {
 public:
  ChunkRef() = default;

  ChunkRef(const ChunkRef& o) : ctl_(o.ctl_) {
    if (ctl_ != nullptr) ++ctl_->refs;
  }
  ChunkRef(ChunkRef&& o) noexcept : ctl_(o.ctl_) { o.ctl_ = nullptr; }
  ChunkRef& operator=(const ChunkRef& o) {
    if (this != &o) {
      reset();
      ctl_ = o.ctl_;
      if (ctl_ != nullptr) ++ctl_->refs;
    }
    return *this;
  }
  ChunkRef& operator=(ChunkRef&& o) noexcept {
    if (this != &o) {
      reset();
      ctl_ = o.ctl_;
      o.ctl_ = nullptr;
    }
    return *this;
  }
  ~ChunkRef() { reset(); }

  void reset() {
    if (ctl_ != nullptr && --ctl_->refs == 0) BufferPool::recycle(ctl_);
    ctl_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const { return ctl_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return ctl_ != nullptr ? ctl_->size : 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return ctl_ != nullptr ? ctl_->data() : nullptr;
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return {data(), size()}; }

  // Number of owners of the chunk (introspection/tests).
  [[nodiscard]] std::uint32_t ref_count() const { return ctl_ != nullptr ? ctl_->refs : 0; }

  // A fresh pooled chunk holding a copy of `src`.
  [[nodiscard]] static ChunkRef copy_of(std::span<const std::uint8_t> src);

 private:
  friend class ByteWriter;

  // Adopts an existing reference (no refcount bump).
  explicit ChunkRef(detail::BufferCtl* ctl) : ctl_(ctl) {}

  detail::BufferCtl* ctl_ = nullptr;
};

// A shared, immutable view of [offset, offset + length) within a pooled
// chunk. Copies bump the refcount; slices share the backing chunk, so a
// slice keeps the whole chunk alive until the last reference drops.
class BufferRef {
 public:
  BufferRef() = default;
  // The whole of `chunk`.
  explicit BufferRef(ChunkRef chunk)
      : chunk_(std::move(chunk)), len_(static_cast<std::uint32_t>(chunk_.size())) {}

  BufferRef(const BufferRef&) = default;
  BufferRef(BufferRef&& o) noexcept
      : chunk_(std::move(o.chunk_)), off_(std::exchange(o.off_, 0)),
        len_(std::exchange(o.len_, 0)) {}
  BufferRef& operator=(const BufferRef&) = default;
  BufferRef& operator=(BufferRef&& o) noexcept {
    if (this != &o) {
      chunk_ = std::move(o.chunk_);
      off_ = std::exchange(o.off_, 0);
      len_ = std::exchange(o.len_, 0);
    }
    return *this;
  }

  void reset() {
    chunk_.reset();
    off_ = 0;
    len_ = 0;
  }

  [[nodiscard]] explicit operator bool() const { return static_cast<bool>(chunk_); }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] const std::uint8_t* data() const {
    return chunk_ ? chunk_.data() + off_ : nullptr;
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data(), static_cast<std::size_t>(len_)};
  }
  // NOLINTNEXTLINE(google-explicit-constructor): a BufferRef *is* a byte view
  operator std::span<const std::uint8_t>() const { return bytes(); }

  // A sub-view sharing (and pinning) the same backing chunk.
  [[nodiscard]] BufferRef slice(std::size_t off, std::size_t len) const {
    HG_ASSERT(off + len <= len_);
    return BufferRef(chunk_, off_ + static_cast<std::uint32_t>(off),
                     static_cast<std::uint32_t>(len));
  }

  // The backing chunk, and whether this view spans all of it — only a whole
  // chunk can travel as a datagram body.
  [[nodiscard]] const ChunkRef& chunk() const { return chunk_; }
  [[nodiscard]] bool whole() const { return off_ == 0 && len_ == chunk_.size(); }

  // Number of owners of the backing chunk (introspection/tests).
  [[nodiscard]] std::uint32_t ref_count() const { return chunk_.ref_count(); }

  // Pooled copy of arbitrary bytes (cold paths, tests).
  [[nodiscard]] static BufferRef copy_of(std::span<const std::uint8_t> src) {
    return BufferRef(ChunkRef::copy_of(src));
  }

  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {data(), data() + size()};
  }

 private:
  BufferRef(ChunkRef chunk, std::uint32_t off, std::uint32_t len)
      : chunk_(std::move(chunk)), off_(off), len_(len) {}

  ChunkRef chunk_;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

// EventRing::state_bytes() counts one BufferRef per stored payload slot, and
// that figure is part of the benchmark's outcome digest: resizing BufferRef
// changes every real-payload run's digest.
static_assert(sizeof(BufferRef) == 16, "BufferRef size feeds gossip state_bytes");

}  // namespace hg::net
