#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/datagram.hpp"

namespace hg::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  SimTime now = SimTime::zero();
  q.schedule_fire_and_forget(SimTime::ms(30), [&] { order.push_back(3); });
  q.schedule_fire_and_forget(SimTime::ms(10), [&] { order.push_back(1); });
  q.schedule_fire_and_forget(SimTime::ms(20), [&] { order.push_back(2); });
  while (q.run_next(now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(now, SimTime::ms(30));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  SimTime now = SimTime::zero();
  for (int i = 0; i < 100; ++i) {
    q.schedule_fire_and_forget(SimTime::ms(5), [&order, i] { order.push_back(i); });
  }
  while (q.run_next(now)) {
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  SimTime now = SimTime::zero();
  EventHandle h = q.schedule(SimTime::ms(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (q.run_next(now)) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  SimTime now = SimTime::zero();
  EventHandle h = q.schedule(SimTime::ms(1), [] {});
  while (q.run_next(now)) {
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  EventQueue q;
  SimTime now = SimTime::zero();
  int count = 0;
  q.schedule_fire_and_forget(SimTime::ms(1), [&] {
    ++count;
    q.schedule_fire_and_forget(SimTime::ms(2), [&] { ++count; });
  });
  while (q.run_next(now)) {
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(now, SimTime::ms(2));
}

TEST(EventQueue, PruneAndEmptySkipsTombstones) {
  EventQueue q;
  EventHandle h1 = q.schedule(SimTime::ms(1), [] {});
  EventHandle h2 = q.schedule(SimTime::ms(2), [] {});
  h1.cancel();
  h2.cancel();
  EXPECT_TRUE(q.prune_and_empty());
}

TEST(EventQueue, NextTimeReflectsLiveHead) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::ms(1), [] {});
  q.schedule_fire_and_forget(SimTime::ms(5), [] {});
  h.cancel();
  ASSERT_FALSE(q.prune_and_empty());
  EXPECT_EQ(q.next_time(), SimTime::ms(5));
}

TEST(EventQueue, ExecutedCountsOnlyRunEvents) {
  EventQueue q;
  SimTime now = SimTime::zero();
  EventHandle h = q.schedule(SimTime::ms(1), [] {});
  q.schedule_fire_and_forget(SimTime::ms(2), [] {});
  h.cancel();
  while (q.run_next(now)) {
  }
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot) {
  // Generation check: after a slot is freed and reused by a new event, a
  // handle to the old event must be inert against the new occupant.
  EventQueue q;
  SimTime now = SimTime::zero();
  EventHandle a = q.schedule(SimTime::ms(1), [] {});
  EventHandle stale = a;  // copies share (slot, generation)
  a.cancel();             // frees the slot
  bool fired = false;
  EventHandle b = q.schedule(SimTime::ms(2), [&] { fired = true; });  // reuses it
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(b.pending());
  stale.cancel();  // must not touch b's slot (generation mismatch)
  EXPECT_TRUE(b.pending());
  while (q.run_next(now)) {
  }
  EXPECT_TRUE(fired);
}

TEST(EventQueue, HandleInvalidatedAfterFireEvenWhenSlotReused) {
  EventQueue q;
  SimTime now = SimTime::zero();
  EventHandle h = q.schedule(SimTime::ms(1), [] {});
  ASSERT_TRUE(q.run_next(now));  // fires; slot freed, generation bumped
  EXPECT_FALSE(h.pending());
  bool fired = false;
  EventHandle fresh = q.schedule(SimTime::ms(2), [&] { fired = true; });
  EXPECT_FALSE(h.pending());  // stale handle must not see the reused slot
  h.cancel();                 // and must not cancel the new event
  EXPECT_TRUE(fresh.pending());
  while (q.run_next(now)) {
  }
  EXPECT_TRUE(fired);
}

TEST(EventQueue, SlotPoolIsReused) {
  EventQueue q;
  SimTime now = SimTime::zero();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 16; ++i) {
      q.schedule_fire_and_forget(SimTime::ms(round * 100 + i + 1), [] {});
    }
    while (q.run_next(now)) {
    }
  }
  EXPECT_EQ(q.live_events(), 0u);
  // The free list recycles slots: the pool never grows past one round's peak.
  EXPECT_LE(q.pool_slots(), 16u);
  EXPECT_EQ(q.executed(), 160u);
}

TEST(EventQueue, CancelledSlotReclaimedImmediately) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::ms(1), [] {});
  EXPECT_EQ(q.live_events(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_events(), 0u);
  // The tombstone stays in the heap until popped...
  EXPECT_EQ(q.size(), 1u);
  // ...but the slot is free for the next event.
  q.schedule_fire_and_forget(SimTime::ms(2), [] {});
  EXPECT_EQ(q.pool_slots(), 1u);
}

TEST(SmallFnTest, InlineAndHeapStorage) {
  int hit = 0;
  SmallFn small([&hit] { ++hit; });  // one pointer capture: inline
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hit, 1);

  struct Big {
    char payload[SmallFn::kInlineBytes + 8] = {};
    int* counter;
  };
  Big big;
  big.counter = &hit;
  SmallFn large([big] { ++*big.counter; });  // exceeds the buffer: heap
  EXPECT_FALSE(large.is_inline());
  large();
  EXPECT_EQ(hit, 2);

  // Move transfers the callable and empties the source.
  SmallFn moved = std::move(small);
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hit, 3);
}

TEST(SmallFnTest, DatagramSizedCaptureStaysInline) {
  // The upload-link and delivery closures capture a fabric pointer and a
  // net::Datagram by value; that must fit the inline buffer or every
  // datagram hop allocates.
  void* fabric = nullptr;
  net::Datagram d{NodeId{1}, NodeId{2}, net::MsgClass::kServe, 0,
                  net::BufferRef::copy_of(std::vector<std::uint8_t>(15, 3)),
                  net::ChunkRef::copy_of(std::vector<std::uint8_t>(1316, 4))};
  SmallFn fn([fabric, d = std::move(d)] { (void)fabric; });
  EXPECT_TRUE(fn.is_inline());
}

TEST(SimTimeTest, Arithmetic) {
  EXPECT_EQ(SimTime::ms(1), SimTime::us(1000));
  EXPECT_EQ(SimTime::sec(1.5), SimTime::ms(1500));
  EXPECT_EQ(SimTime::ms(3) + SimTime::ms(4), SimTime::ms(7));
  EXPECT_EQ(SimTime::ms(10) - SimTime::ms(4), SimTime::ms(6));
  EXPECT_DOUBLE_EQ(SimTime::ms(1500).as_sec(), 1.5);
  EXPECT_LT(SimTime::zero(), SimTime::us(1));
}

}  // namespace
}  // namespace hg::sim
