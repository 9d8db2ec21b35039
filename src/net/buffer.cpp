#include "net/buffer.hpp"

namespace hg::net {

BufferPool& BufferPool::local() {
  static thread_local BufferPool pool;
  return pool;
}

BufferPool::~BufferPool() {
  for (detail::BufferCtl* head : free_lists_) {
    while (head != nullptr) {
      detail::BufferCtl* next = head->next_free;
      ::operator delete(head);
      head = next;
    }
  }
}

std::uint8_t BufferPool::class_for(std::size_t n) {
  if (n > kMaxClassBytes) return kUnpooledClass;
  std::uint8_t cls = 0;
  std::size_t cap = kMinClassBytes;
  while (cap < n) {
    cap <<= 1;
    ++cls;
  }
  return cls;
}

detail::BufferCtl* BufferPool::acquire(std::size_t n) {
  const std::uint8_t cls = class_for(n);
  if (cls == kUnpooledClass) {
    ++stats_.oversized;
    ++stats_.chunk_allocs;
    void* mem = ::operator new(sizeof(detail::BufferCtl) + n);
    return ::new (mem) detail::BufferCtl{this, nullptr, 1, static_cast<std::uint32_t>(n),
                                         0, kUnpooledClass};
  }
  detail::BufferCtl*& head = free_lists_[cls];
  if (head != nullptr) {
    detail::BufferCtl* ctl = head;
    head = ctl->next_free;
    ctl->next_free = nullptr;
    ctl->refs = 1;
    ctl->size = 0;
    ++stats_.pool_hits;
    return ctl;
  }
  ++stats_.chunk_allocs;
  void* mem = ::operator new(sizeof(detail::BufferCtl) + class_bytes(cls));
  return ::new (mem) detail::BufferCtl{
      this, nullptr, 1, static_cast<std::uint32_t>(class_bytes(cls)), 0, cls};
}

void BufferPool::recycle(detail::BufferCtl* ctl) {
  BufferPool& mine = local();
  // Only ever push onto the *releasing* thread's free list: the stored owner
  // pointer may name a pool on a thread that has already exited, so it is
  // compared, never dereferenced. Unpooled and foreign chunks go back to the
  // heap.
  if (ctl->size_class != kUnpooledClass && ctl->owner == &mine) {
    ctl->next_free = mine.free_lists_[ctl->size_class];
    mine.free_lists_[ctl->size_class] = ctl;
    ++mine.stats_.pool_returns;
    return;
  }
  if (ctl->size_class == kUnpooledClass) {
    ++mine.stats_.unpooled_frees;
  } else {
    ++mine.stats_.foreign_frees;
  }
  ::operator delete(ctl);
}

ChunkRef ChunkRef::copy_of(std::span<const std::uint8_t> src) {
  detail::BufferCtl* ctl = BufferPool::local().acquire(src.size());
  if (!src.empty()) std::memcpy(ctl->data(), src.data(), src.size());
  ctl->size = static_cast<std::uint32_t>(src.size());
  return ChunkRef(ctl);
}

}  // namespace hg::net
