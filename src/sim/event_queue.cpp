#include "sim/event_queue.hpp"

#include <bit>
#include <functional>

namespace hg::sim {

void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
  queue_ = nullptr;
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->handle_pending(slot_, gen_);
}

void EventQueue::free_slot(std::uint32_t i) {
  Slot& s = slots_[i];
  s.fn.reset();
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = i;
  --live_;
}

void EventQueue::cancel(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // fired or cancelled
  free_slot(slot);  // the entry stays behind as a generation-mismatched tombstone
}

bool EventQueue::handle_pending(std::uint32_t slot, std::uint32_t gen) const {
  return slot < slots_.size() && slots_[slot].gen == gen;
}

std::size_t EventQueue::size() const {
  std::size_t n = heap_.size() + far_.size();
  for (const std::uint32_t head : heads_) {
    for (std::uint32_t b = head; b != kNilBlock; b = blocks_[b].next) n += blocks_[b].count;
  }
  return n;
}

void EventQueue::insert(const Entry& e) {
  if (heads_.empty() || bucket_of(e.at) <= cur_) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  } else {
    park(e);
  }
}

void EventQueue::park(const Entry& e) {
  const std::uint64_t bucket = bucket_of(e.at);
  if (bucket >= cur_ + kBuckets) {
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
    return;
  }
  const std::size_t s = bucket & kBucketMask;
  std::uint32_t head = heads_[s];
  if (head == kNilBlock || blocks_[head].count == kBlockEntries) {
    std::uint32_t fresh;
    if (free_block_ != kNilBlock) {
      fresh = free_block_;
      free_block_ = blocks_[fresh].next;
    } else {
      HG_ASSERT_MSG(blocks_.size() < kNilBlock, "event block pool exhausted");
      fresh = static_cast<std::uint32_t>(blocks_.size());
      blocks_.emplace_back();
    }
    blocks_[fresh].count = 0;
    blocks_[fresh].next = head;
    heads_[s] = head = fresh;
    occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  Block& block = blocks_[head];
  block.entries[block.count++] = e;
}

void EventQueue::build_calendar() {
  heads_.assign(kBuckets, kNilBlock);
  occupied_.assign(kBitmapWords, 0);
  if (heap_.empty()) return;
  // The earliest entry's bucket becomes current and stays in the heap;
  // every later entry moves out with the sequence number it was given.
  cur_ = bucket_of(heap_.front().at);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry e = heap_[i];
    if (!entry_live(e)) continue;
    if (bucket_of(e.at) == cur_) {
      heap_[kept++] = e;
    } else {
      park(e);
    }
  }
  heap_.resize(kept);
  heapify();
}

bool EventQueue::load_next_bucket() {
  // The current slot is always empty (its entries sit in the heap), so one
  // circular scan of the bitmap from the slot after it finds the nearest
  // non-empty bucket.
  std::uint64_t next = ~std::uint64_t{0};
  const std::size_t start = (cur_ + 1) & kBucketMask;
  std::size_t w = start / 64;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; i <= kBitmapWords; ++i) {
    if (word != 0) {
      const std::uint64_t s = w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
      next = cur_ + ((s - cur_) & kBucketMask);
      break;
    }
    w = (w + 1) % kBitmapWords;
    word = occupied_[w];
  }
  if (next == ~std::uint64_t{0}) {
    // Every far entry lies past the ring, so it is next only once the ring
    // is empty.
    if (far_.empty()) return false;
    next = bucket_of(far_.front().at);
  }

  cur_ = next;
  const std::size_t s = cur_ & kBucketMask;
  for (std::uint32_t b = heads_[s]; b != kNilBlock;) {
    Block& block = blocks_[b];
    for (std::uint32_t i = 0; i < block.count; ++i) {
      if (entry_live(block.entries[i])) heap_.push_back(block.entries[i]);
    }
    const std::uint32_t following = block.next;
    block.next = free_block_;
    free_block_ = b;
    b = following;
  }
  heads_[s] = kNilBlock;
  occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  pull_far();
  heapify();
  return true;
}

void EventQueue::pull_far() {
  while (!far_.empty() && bucket_of(far_.front().at) < cur_ + kBuckets) {
    std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
    const Entry e = far_.back();
    far_.pop_back();
    if (!entry_live(e)) continue;
    if (bucket_of(e.at) == cur_) {
      heap_.push_back(e);  // heapified by the caller
    } else {
      park(e);
    }
  }
}

void EventQueue::heapify() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) sift_down(i);
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!(heap_[parent] > e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[best] > heap_[c]) best = c;
    }
    if (!(e > heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

bool EventQueue::run_next(SimTime& now) {
  if (prune_and_empty()) return false;
  const Entry e = heap_.front();
  pop_top();
  HG_ASSERT_MSG(e.at >= now, "event queue must never run backwards in time");
  now = e.at;
  ++executed_;
  // Move the callback out before running it: the callback may schedule
  // further events, which can grow (and reallocate) the slot slab.
  SmallFn fn = std::move(slots_[e.slot].fn);
  const SimTime period = slots_[e.slot].period;
  if (period == SimTime::zero()) {
    free_slot(e.slot);  // generation bump: handles report !pending() while running
    fn();
    return true;
  }
  // A periodic timer keeps its slot while the callback runs, then is
  // re-filed in it (see the file comment).
  fn();
  if (slots_[e.slot].gen != e.gen) return true;  // cancelled while it ran
  slots_[e.slot].fn = std::move(fn);
  push_entry(e.at + period, 0, e.slot);
  return true;
}

bool EventQueue::prune_and_empty() {
  if (heads_.empty()) build_calendar();
  for (;;) {
    while (!heap_.empty() && !entry_live(heap_.front())) pop_top();
    if (!heap_.empty()) return false;
    if (!load_next_bucket()) return true;
  }
}

SimTime EventQueue::next_time() const {
  HG_ASSERT(!heap_.empty());
  return heap_.front().at;
}

}  // namespace hg::sim
