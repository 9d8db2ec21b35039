#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/datagram.hpp"
#include "sim/simulator.hpp"

namespace hg::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  SimTime now = SimTime::zero();
  q.schedule(SimTime::ms(30), [&] { order.push_back(3); });
  q.schedule(SimTime::ms(10), [&] { order.push_back(1); });
  q.schedule(SimTime::ms(20), [&] { order.push_back(2); });
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
    q.schedule(SimTime::ms(5), [&order, i] { order.push_back(i); });
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
  q.schedule(SimTime::ms(1), [&] {
    ++count;
    q.schedule(SimTime::ms(2), [&] { ++count; });
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
  q.schedule(SimTime::ms(5), [] {});
  h.cancel();
  ASSERT_FALSE(q.prune_and_empty());
  EXPECT_EQ(q.next_time(), SimTime::ms(5));
}

TEST(EventQueue, ExecutedCountsOnlyRunEvents) {
  EventQueue q;
  SimTime now = SimTime::zero();
  EventHandle h = q.schedule(SimTime::ms(1), [] {});
  q.schedule(SimTime::ms(2), [] {});
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
      q.schedule(SimTime::ms(round * 100 + i + 1), [] {});
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
  q.schedule(SimTime::ms(2), [] {});
  EXPECT_EQ(q.pool_slots(), 1u);
}

TEST(EventQueue, CancellingAPeriodicTimerFreesItsSlotAtOnce) {
  EventQueue q;
  SimTime now = SimTime::zero();
  int ticks = 0;
  EventHandle h = q.schedule_periodic(SimTime::ms(1), SimTime::ms(1), [&] { ++ticks; });
  ASSERT_TRUE(q.run_next(now));
  ASSERT_TRUE(q.run_next(now));
  EXPECT_EQ(ticks, 2);
  // One slot for the timer's whole life, re-filed after every tick.
  EXPECT_EQ(q.live_events(), 1u);
  EXPECT_EQ(q.pool_slots(), 1u);
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_EQ(q.live_events(), 0u);
  EXPECT_FALSE(q.run_next(now));
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(q.executed(), 2u);
}

// The calendar's geometry, mirrored here so the edge cases below land on
// bucket and ring boundaries: 4096 us buckets, 1024 of them in the ring.
constexpr std::int64_t kBucketUs = 4096;
constexpr std::int64_t kRingUs = 1024 * kBucketUs;

// Schedules one event per time (in the order given), runs the queue dry,
// and returns the times in the order the events ran.
std::vector<std::int64_t> run_times(EventQueue& q, SimTime& now,
                                    const std::vector<std::int64_t>& times) {
  std::vector<std::int64_t> ran;
  for (const std::int64_t t : times) {
    q.schedule(SimTime::us(t), [&ran, t] { ran.push_back(t); });
  }
  while (q.run_next(now)) {
  }
  return ran;
}

TEST(EventQueue, EntriesAtTheRingWrapRunInOrder) {
  EventQueue q;
  SimTime now = SimTime::zero();
  // The first pop builds the calendar with bucket 0 current.
  q.schedule(SimTime::zero(), [] {});
  ASSERT_TRUE(q.run_next(now));
  // The ring's last bucket, the first bucket past it (which shares the
  // current bucket's ring slot), and their neighbours.
  std::vector<std::int64_t> times = {kRingUs,          kRingUs - 1, kRingUs - kBucketUs,
                                     kRingUs + 1,      kBucketUs,   kBucketUs - 1,
                                     kRingUs - kBucketUs - 1, 1};
  std::vector<std::int64_t> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(run_times(q, now, times), sorted);

  // Again from a current bucket late in the ring, so slot indices wrap past
  // the end of the ring: now sits in bucket 1024 (slot 0) after the run.
  const std::int64_t base = now.as_us();
  times = {base + kRingUs, base + 30 * kBucketUs, base + kRingUs - 1, base + kBucketUs,
           base + 1023 * kBucketUs, base + kRingUs + kBucketUs, base};
  sorted = times;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(run_times(q, now, times), sorted);
}

TEST(EventQueue, OnlyEntriesBeyondTheRingStillRun) {
  EventQueue q;
  SimTime now = SimTime::zero();
  std::vector<int> order;
  // All beyond the ring, scheduled before the first pop.
  q.schedule(SimTime::sec(100), [&] { order.push_back(100); });
  q.schedule(SimTime::sec(10), [&] { order.push_back(10); });
  EventHandle h = q.schedule(SimTime::sec(5), [&] { order.push_back(5); });
  q.schedule(SimTime::sec(1000), [&] { order.push_back(1000); });
  ASSERT_FALSE(q.prune_and_empty());
  EXPECT_EQ(q.next_time(), SimTime::sec(5));
  h.cancel();
  ASSERT_FALSE(q.prune_and_empty());
  EXPECT_EQ(q.next_time(), SimTime::sec(10));
  ASSERT_TRUE(q.run_next(now));
  EXPECT_EQ(now, SimTime::sec(10));
  // And once the calendar is built, another one far ahead of the current
  // bucket, and one that lands back inside the ring.
  q.schedule(SimTime::sec(500), [&] { order.push_back(500); });
  q.schedule(SimTime::sec(12), [&] { order.push_back(12); });
  while (q.run_next(now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{10, 12, 100, 500, 1000}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, DestroyedWithPendingEntriesReleasesEveryCallback) {
  // Callbacks that never ran, wherever their entries sit (heap, ring bucket,
  // far heap) and however they are stored (inline or heap-allocated), die
  // with the queue. The sanitizer build checks that nothing leaks.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  struct Wide {
    char pad[SmallFn::kInlineBytes] = {};
    std::shared_ptr<int> token;
  };
  {
    EventQueue q;
    SimTime now = SimTime::zero();
    q.schedule(SimTime::us(5), [token] {});
    q.schedule(SimTime::sec(1), [wide = Wide{{}, token}] {});
    q.schedule(SimTime::zero(), [] {});
    ASSERT_TRUE(q.run_next(now));  // builds the calendar
    for (const SimTime at : {SimTime::us(7), SimTime::ms(300), SimTime::sec(9)}) {
      q.schedule(at, [token] {});
      q.schedule(at, [wide = Wide{{}, token}] {});
      q.schedule(at, [token] {}).cancel();
    }
    EXPECT_EQ(q.live_events(), 8u);
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, MatchesSortedReferenceModel) {
  // A seeded random mix of scheduling, cancelling and running, checked
  // step by step against a model that keeps every live event sorted by
  // (time, key2, seq). Each event checks, as it runs, that it is the
  // model's first; next_time() and prune_and_empty() must agree with the
  // model after every step. Periodic timers join the mix: each tick is
  // re-filed with the sequence number that follows whatever its callback
  // scheduled, and some ticks cancel their own timer.
  using Key = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Simulator s(seed);
    Rng rng(seed);
    const auto below = [&rng](std::int64_t n) {
      return static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n)));
    };
    std::map<Key, int> model;           // pending runs -> event id
    std::map<int, Key> next;            // event id -> its pending run
    std::map<int, EventHandle> timers;  // live periodic timers
    std::vector<std::pair<EventHandle, int>> handles;
    std::uint64_t seq = 0;
    int next_id = 0;
    std::uint64_t ran = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t ticks = 0;

    // Delays from 0 to well past the ring span, biased towards bucket and
    // ring edges and towards same-microsecond ties.
    const auto pick_time = [&]() -> std::int64_t {
      const std::int64_t now = s.now().as_us();
      const std::int64_t bucket = now / kBucketUs;
      switch (below(7)) {
        case 0: return now;
        case 1: return now + below(64);
        case 2: return (bucket + 1 + below(3)) * kBucketUs - 1 + below(3);
        case 3: return now + below(2 * kBucketUs);
        case 4: return now + below(kRingUs + kBucketUs);
        case 5: return (bucket + 1024) * kBucketUs - 2 + below(4);
        default: return now + kRingUs + below(4 * kRingUs);
      }
    };
    const auto add = [&](int id, std::int64_t at, std::uint64_t key2) {
      const Key key{at, key2, seq++};
      model.emplace(key, id);
      next[id] = key;
    };
    // Schedules one event at a random time, or a one-shot at `at` >= 0.
    std::function<void(bool, std::int64_t)> schedule_one;
    // Checks that event `id` is the model's first, drops that run, and
    // sometimes schedules more from inside it.
    const auto run = [&](int id) {
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(model.begin()->first, next[id]);
      EXPECT_EQ(model.begin()->second, id);
      model.erase(model.begin());
      next.erase(id);
      ++ran;
      if (below(3) == 0) {
        for (std::int64_t n = 1 + below(2); n > 0; --n) schedule_one(true, -1);
      }
    };
    schedule_one = [&](bool from_callback, std::int64_t at) {
      // From inside a running event, often at the current time itself.
      const bool one_shot = at >= 0;
      if (!one_shot) at = from_callback && below(4) == 0 ? s.now().as_us() : pick_time();
      // at(), keyed at(), after() with no handle kept, or every().
      const std::int64_t api = below(one_shot ? 3 : 4);
      const std::uint64_t key2 = api == 0 || api == 3 || below(2) == 0 ? 0 : rng.below(4);
      const int id = next_id++;
      add(id, at, key2);
      const SimTime when = SimTime::us(at);
      const auto fn = [&, id] { run(id); };
      switch (api) {
        case 0: handles.emplace_back(s.at(when, fn), id); break;
        case 1: handles.emplace_back(s.at(when, fn, key2), id); break;
        case 2: s.after(when - s.now(), fn, key2); break;
        default: {
          // Periods from under a bucket to past the ring span.
          const std::int64_t period = 1 + (below(2) == 0 ? below(kBucketUs) : below(2 * kRingUs));
          const EventHandle h = s.every(when - s.now(), SimTime::us(period), [&, id, period] {
            run(id);
            ++ticks;
            // Sometimes an event at the next tick's own instant: it is older
            // than the re-filed tick, so at key2 == 0 it runs first.
            if (below(3) == 0) schedule_one(true, s.now().as_us() + period);
            const EventHandle self = timers.at(id);
            EXPECT_TRUE(self.pending());
            if (below(3) == 0) {
              timers.at(id).cancel();
              timers.erase(id);
              EXPECT_FALSE(self.pending());
              return;
            }
            add(id, s.now().as_us() + period, 0);  // the re-file follows the callback
          });
          timers.emplace(id, h);
          handles.emplace_back(h, id);
        }
      }
    };
    // Bounds on a bucket edge (or one microsecond either side), near or far.
    const auto pick_bound = [&]() {
      const std::int64_t buckets = below(8) != 0 ? below(4) : below(1500);
      const std::int64_t edge = (s.now().as_us() / kBucketUs + buckets) * kBucketUs;
      return SimTime::us(std::max(s.now().as_us(), edge - 1 + below(3)));
    };

    for (int i = 0; i < 300; ++i) schedule_one(false, -1);  // pending before the first pop
    for (int step = 0; step < 20000; ++step) {
      const std::int64_t op = below(20);
      if (op < 8) {
        schedule_one(false, -1);
      } else if (op < 12) {
        // Cancel a random pending event, dropping handles of events that ran.
        while (!handles.empty()) {
          const std::size_t i = rng.below(handles.size());
          auto [handle, id] = handles[i];
          handles[i] = handles.back();
          handles.pop_back();
          const bool pending = next.count(id) == 1;
          EXPECT_EQ(handle.pending(), pending);
          if (!pending) continue;
          handle.cancel();
          model.erase(next[id]);
          next.erase(id);
          timers.erase(id);
          ++cancelled;
          break;
        }
      } else if (op < 16) {
        // Run the next timestamp.
        if (!s.queue().prune_and_empty()) s.run_until(s.queue().next_time());
      } else {
        const SimTime bound = pick_bound();
        if (below(2) == 0) {
          s.run_until(bound);
          EXPECT_TRUE(model.empty() || std::get<0>(model.begin()->first) > bound.as_us());
        } else {
          s.run_before(bound);
          EXPECT_TRUE(model.empty() || std::get<0>(model.begin()->first) >= bound.as_us());
        }
        EXPECT_EQ(s.now(), bound);
      }
      const bool empty = s.queue().prune_and_empty();
      ASSERT_EQ(empty, model.empty()) << "step " << step;
      if (!empty) {
        ASSERT_EQ(s.queue().next_time().as_us(), std::get<0>(model.begin()->first))
            << "step " << step;
      }
      ASSERT_EQ(s.queue().live_events(), model.size()) << "step " << step;
    }
    // Stop the timers still running, then drain the one-shots.
    for (auto& [id, timer] : timers) {
      timer.cancel();
      model.erase(next[id]);
    }
    s.run_to_completion();
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(s.events_executed(), ran);
    // The mix exercised every outcome at scale.
    EXPECT_GT(ran, 5000u);
    EXPECT_GT(cancelled, 1000u);
    EXPECT_GT(ticks, 1000u);
  }
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
