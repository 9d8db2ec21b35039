// Pending-event set of the discrete-event simulator.
//
// Callbacks live in a slab of pooled slots (SmallFn: callables up to 48
// bytes are stored inline, so the datagram-delivery hot path allocates
// nothing). Freed slots go on a free list and are reused; each slot carries
// a generation counter, so stale handles and stale queue entries are
// detected after reuse.
//
// The queue orders 32-byte POD entries (time, key2, seq, slot, generation):
// events at equal times fire in key2 order (0 for plain events), then in
// scheduling order, which keeps runs deterministic. The entries sit in a
// calendar queue (R. Brown, "Calendar queues", CACM 1988):
//
//  * a ring of kBuckets buckets, each 2^kBucketShift us wide, holds the
//    entries due in the next ~4.2 s. An entry joins its bucket in O(1),
//    appended to a chain of fixed-size blocks taken from a per-queue free
//    list, and a bitmap marks the non-empty buckets, so finding the next
//    one is a scan of 16 words (the sharded engine asks every partition for
//    its next event time at every barrier);
//  * a 4-ary heap holds the current bucket only. When it runs dry, the next
//    non-empty bucket is loaded: its live entries are heapified and its
//    blocks go back to the free list. Events still run in exact
//    (time, key2, seq) order, because every entry of a later bucket is later
//    than every entry of this one;
//  * a small heap holds the rare entries beyond the ring (failure-detection
//    drains ~10 s out, a traced run's slice boundaries). They move into the
//    ring as it advances over them.
//
// Geometry: 2^12 us buckets x 1024 span 4.19 s, which covers the paper's
// 1 s retransmission timeout and its 2 s and 4 s backoffs, so nearly every
// timer skips the far heap. The current bucket then holds ~4 ms of events.
// Widths from 2^10 to 2^14 us ran within noise of each other on the
// repository benchmark; a block of 16 entries keeps a sparse bucket's
// unused tail at one 512-byte block.
//
// Cancellation frees the slot immediately (the callback dies right away) and
// leaves the entry behind as a tombstone, detected by generation mismatch.
// Retransmission timers are armed for nearly every request and cancelled by
// nearly every serve; their tombstones are dropped with one generation check
// when their bucket loads, and never enter the heap.
//
// A periodic timer is one slot that also stores its period. Each tick runs
// its callback and, unless the timer was cancelled meanwhile, re-files the
// same slot at now + period with a sequence number taken after the callback
// ran, so whatever the callback schedules for the next tick's instant runs
// before that tick. The slot stays allocated while its callback runs: the
// handle reads pending() there and may cancel the timer, which frees the
// slot like any other cancellation.
//
// The calendar is built at the first pop (prune_and_empty or run_next),
// which spreads the pending entries into buckets, each keeping its sequence
// number. Until then entries go straight into the heap, so a deployment
// built and torn down without running, as set-up timing does, allocates no
// ring or blocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace hg::sim {

class EventQueue;

// Token for cancelling a scheduled event or periodic timer. Default-
// constructed handles are inert; cancel() on an already-fired or cancelled
// event is a no-op. A handle refers into its queue's slot pool and must not
// outlive the queue.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};
// RetransmitTracker keeps one handle per pending request.
static_assert(sizeof(EventHandle) == 16, "EventHandle size feeds gossip state_bytes");

class EventQueue {
 public:
  // Schedules `fn` at absolute time `at`; events at equal times run in
  // (key2, scheduling order). The sharded engine keys datagram deliveries by
  // their seed-derived exchange tiebreak so that same-microsecond arrivals at
  // one node order identically whether they were scheduled locally during an
  // epoch or imported at a barrier: ordering becomes a function of the seed,
  // not of the partition layout. Every other event uses key2 == 0, so the
  // sequential engine's (time, scheduling order) contract holds unchanged.
  template <class F>
  EventHandle schedule(SimTime at, F&& fn, std::uint64_t key2 = 0) {
    const std::uint32_t slot = alloc_slot(std::forward<F>(fn), SimTime::zero());
    push_entry(at, key2, slot);
    return EventHandle{this, slot, slots_[slot].gen};
  }

  // Runs `fn` at `first` and then every `period` (key2 == 0) until the
  // returned handle is cancelled; see the file comment.
  template <class F>
  EventHandle schedule_periodic(SimTime first, SimTime period, F&& fn) {
    HG_ASSERT(period > SimTime::zero());
    const std::uint32_t slot = alloc_slot(std::forward<F>(fn), period);
    push_entry(first, 0, slot);
    return EventHandle{this, slot, slots_[slot].gen};
  }

  // Pops and runs the earliest live event; returns false when empty.
  // `now` is updated to the event's timestamp before the callback runs.
  bool run_next(SimTime& now);

  // Removes cancelled entries from the front, loading the next non-empty
  // bucket whenever the current one runs dry, then reports whether a live
  // event remains. O(1) amortized: each tombstone is dropped exactly once.
  [[nodiscard]] bool prune_and_empty();

  // Entries held, including cancelled tombstones not yet dropped.
  [[nodiscard]] std::size_t size() const;
  // Precondition: prune_and_empty() returned false; next live timestamp.
  [[nodiscard]] SimTime next_time() const;

  // Total events executed so far (for perf accounting and tests).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // Pool introspection (tests/benchmarks).
  [[nodiscard]] std::size_t live_events() const { return live_; }
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct Slot {
    SmallFn fn;
    SimTime period;  // zero for a one-shot event
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
  };
  // The period fills the padding after the 64-byte callback.
  static_assert(sizeof(Slot) == 80, "a periodic slot must cost no more than a one-shot");

  // POD queue record; liveness = generation match against the slot.
  struct Entry {
    SimTime at;
    std::uint64_t key2;  // secondary order at equal times; 0 for plain events
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      if (key2 != o.key2) return key2 > o.key2;
      return seq > o.seq;
    }
  };

  static constexpr std::size_t kHeapArity = 4;

  // Calendar geometry (see the file comment).
  static constexpr unsigned kBucketShift = 12;  // bucket width 4096 us
  static constexpr std::uint64_t kBuckets = 1024;
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;
  static constexpr std::size_t kBitmapWords = kBuckets / 64;
  static constexpr std::uint32_t kBlockEntries = 16;
  static constexpr std::uint32_t kNilBlock = 0xffffffffu;

  // A bucket is a chain of blocks; entries in it are unordered.
  struct Block {
    Entry entries[kBlockEntries];
    std::uint32_t count;
    std::uint32_t next;
  };

  static std::uint64_t bucket_of(SimTime t) {
    return static_cast<std::uint64_t>(t.as_us()) >> kBucketShift;
  }

  template <class F>
  std::uint32_t alloc_slot(F&& fn, SimTime period) {
    std::uint32_t i;
    if (free_head_ != kNilSlot) {
      i = free_head_;
      free_head_ = slots_[i].next_free;
    } else {
      HG_ASSERT_MSG(slots_.size() < kNilSlot, "event slot pool exhausted");
      i = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[i].fn = SmallFn(std::forward<F>(fn));
    slots_[i].period = period;
    ++live_;
    return i;
  }

  // Destroys the callback and recycles the slot. The generation bump
  // invalidates every outstanding handle/queue entry referring to it. (A
  // slot would need 2^32 reuses for a stale handle to alias a new event.)
  void free_slot(std::uint32_t i);

  void push_entry(SimTime at, std::uint64_t key2, std::uint32_t slot) {
    // Bucket indices are unsigned: a negative time would land in the far
    // future instead of the past.
    HG_ASSERT_MSG(at >= SimTime::zero(), "event time must not be negative");
    insert(Entry{at, key2, next_seq_++, slot, slots_[slot].gen});
  }

  // Files an entry in the heap (its bucket is current or earlier, or the
  // calendar is not built yet), its ring bucket, or the far heap.
  void insert(const Entry& e);
  // Files an entry whose bucket lies after the current one.
  void park(const Entry& e);
  void build_calendar();
  // Makes the next non-empty bucket current and loads its live entries into
  // the (empty) heap. Returns false when nothing is pending.
  bool load_next_bucket();
  // Moves far entries into the heap or the ring once the ring reaches them.
  void pull_far();

  // Restores the heap property over all of heap_ (Floyd, O(n)).
  void heapify();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes heap_[0] (min), maintaining the heap property.
  void pop_top();

  void cancel(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool handle_pending(std::uint32_t slot, std::uint32_t gen) const;
  [[nodiscard]] bool entry_live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  // The current bucket, plus entries scheduled earlier than it after it was
  // loaded, as a 4-ary min-heap. Before the calendar is built, every entry.
  std::vector<Entry> heap_;
  // Absolute index of the current bucket; the ring holds the buckets after
  // it, up to cur_ + kBuckets exclusive.
  std::uint64_t cur_ = 0;
  // Ring slot -> first block of its bucket, or kNilBlock. Empty until the
  // calendar is built.
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint64_t> occupied_;  // bitmap of non-empty ring slots
  std::vector<Block> blocks_;
  std::uint32_t free_block_ = kNilBlock;
  // Entries at cur_ + kBuckets or later, as a binary min-heap.
  std::vector<Entry> far_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
};

}  // namespace hg::sim
