// Pending-event set of the discrete-event simulator.
//
// Two structures cooperate:
//
//  * a slab of pooled slots holding the callbacks (SmallFn: callables up to
//    48 bytes are stored inline — the datagram-delivery hot path allocates
//    nothing). Freed slots go on a free list and are reused; each slot
//    carries a generation counter so stale handles and stale heap entries
//    are detected after reuse.
//  * a 4-ary heap of plain-old-data entries keyed by (time, key2, sequence
//    number): events at equal times fire in key2 order (0 for plain events),
//    then in scheduling order, which keeps runs deterministic. Sift
//    operations move 32-byte PODs (time, key2, seq, slot, generation), never
//    callbacks; the 4-way branching halves the tree height, and a sibling
//    group spans two cache lines — where a 100k-event backlog spends its
//    time.
//
// Cancellation frees the slot immediately (the callback dies right away) and
// leaves the heap entry behind as a tombstone — detected by generation
// mismatch and skipped on pop. The dominant consumers (retransmission timers
// that almost always get cancelled) are cheaper this way than with a
// tombstone-free structure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace hg::sim {

// Type-erased callback alias, kept for signatures that store callbacks
// long-term (periodic timers, retransmit owners). Scheduling itself is
// templated and does not round-trip through std::function.
using EventFn = std::function<void()>;

class EventQueue;

// Token for cancelling a scheduled event. Default-constructed handles are
// inert; cancel() on an already-fired or cancelled event is a no-op. A
// handle refers into its queue's slot pool and must not outlive the queue.
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

class EventQueue {
 public:
  // Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  template <class F>
  EventHandle schedule(SimTime at, F&& fn) {
    const std::uint32_t slot = alloc_slot(std::forward<F>(fn));
    push_entry(at, 0, slot);
    return EventHandle{this, slot, slots_[slot].gen};
  }

  // Like schedule, but with an explicit secondary ordering key: events at
  // equal times run in (key2, scheduling order). The sharded engine keys
  // datagram deliveries by their seed-derived exchange tiebreak so that
  // same-microsecond arrivals at one node order identically whether they
  // were scheduled locally during an epoch or imported at a barrier —
  // ordering becomes a function of the seed, not of the partition layout.
  // Every plain schedule uses key2 == 0, so the sequential engine's
  // (time, scheduling order) contract is bit-for-bit unchanged.
  template <class F>
  EventHandle schedule_keyed(SimTime at, std::uint64_t key2, F&& fn) {
    const std::uint32_t slot = alloc_slot(std::forward<F>(fn));
    push_entry(at, key2, slot);
    return EventHandle{this, slot, slots_[slot].gen};
  }

  // Schedules without returning a cancellation token (hot path: network
  // deliveries are never cancelled). Identical storage; the only saving is
  // not materializing the handle.
  template <class F>
  void schedule_fire_and_forget(SimTime at, F&& fn) {
    push_entry(at, 0, alloc_slot(std::forward<F>(fn)));
  }

  template <class F>
  void schedule_keyed_fire_and_forget(SimTime at, std::uint64_t key2, F&& fn) {
    push_entry(at, key2, alloc_slot(std::forward<F>(fn)));
  }

  // Pops and runs the earliest live event; returns false when empty.
  // `now` is updated to the event's timestamp before the callback runs.
  bool run_next(SimTime& now);

  // Removes cancelled entries from the front, then reports whether a live
  // event remains. O(1) amortized: each tombstone is popped exactly once.
  [[nodiscard]] bool prune_and_empty();

  // Entries in the heap, including cancelled-but-unpopped tombstones.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
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
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
  };

  // POD heap record; liveness = generation match against the slot.
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

  template <class F>
  std::uint32_t alloc_slot(F&& fn) {
    std::uint32_t i;
    if (free_head_ != kNilSlot) {
      i = free_head_;
      free_head_ = slots_[i].next_free;
      slots_[i].fn = SmallFn(std::forward<F>(fn));
    } else {
      HG_ASSERT_MSG(slots_.size() < kNilSlot, "event slot pool exhausted");
      i = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      slots_[i].fn = SmallFn(std::forward<F>(fn));
    }
    ++live_;
    return i;
  }

  // Destroys the callback and recycles the slot. The generation bump
  // invalidates every outstanding handle/heap entry referring to it. (A
  // slot would need 2^32 reuses for a stale handle to alias a new event.)
  void free_slot(std::uint32_t i);

  void push_entry(SimTime at, std::uint64_t key2, std::uint32_t slot) {
    heap_.push_back(Entry{at, key2, next_seq_++, slot, slots_[slot].gen});
    sift_up(heap_.size() - 1);
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes heap_[0] (min), maintaining the heap property.
  void pop_top();

  void cancel(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool handle_pending(std::uint32_t slot, std::uint32_t gen) const;
  [[nodiscard]] bool entry_live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }
  void pop_dead();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
};

}  // namespace hg::sim
