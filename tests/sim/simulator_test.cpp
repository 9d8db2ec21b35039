#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hg::sim {
namespace {

TEST(Simulator, RunUntilStopsAtBound) {
  Simulator s(1);
  std::vector<int> fired;
  s.after(SimTime::ms(10), [&] { fired.push_back(1); });
  s.after(SimTime::ms(20), [&] { fired.push_back(2); });
  s.after(SimTime::ms(30), [&] { fired.push_back(3); });

  s.run_until(SimTime::ms(20));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), SimTime::ms(20));

  s.run_until(SimTime::ms(100));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s(1);
  s.run_until(SimTime::sec(5));
  EXPECT_EQ(s.now(), SimTime::sec(5));
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s(1);
  SimTime observed = SimTime::zero();
  s.after(SimTime::ms(10), [&] {
    s.after(SimTime::ms(5), [&] { observed = s.now(); });
  });
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(observed, SimTime::ms(15));
}

TEST(Simulator, PeriodicTimerFiresRepeatedly) {
  Simulator s(1);
  int count = 0;
  s.every(SimTime::ms(100), SimTime::ms(100), [&] { ++count; });
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(count, 10);
}

TEST(Simulator, PeriodicTimerInitialDelayIndependent) {
  Simulator s(1);
  std::vector<SimTime> times;
  s.every(SimTime::ms(50), SimTime::ms(200), [&] { times.push_back(s.now()); });
  s.run_until(SimTime::ms(650));
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(times[0], SimTime::ms(50));
  EXPECT_EQ(times[1], SimTime::ms(250));
  EXPECT_EQ(times[2], SimTime::ms(450));
  EXPECT_EQ(times[3], SimTime::ms(650));
}

TEST(Simulator, PeriodicTimerCancel) {
  Simulator s(1);
  int count = 0;
  auto h = s.every(SimTime::ms(100), SimTime::ms(100), [&] { ++count; });
  s.run_until(SimTime::ms(350));
  EXPECT_EQ(count, 3);
  h.cancel();
  s.run_until(SimTime::sec(2));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicTimerSelfCancelFromCallback) {
  Simulator s(1);
  int count = 0;
  EventHandle h;
  h = s.every(SimTime::ms(10), SimTime::ms(10), [&] {
    if (++count == 5) h.cancel();
  });
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicSelfCancelLeavesQueueClean) {
  // A periodic timer cancelled from inside its own callback must stop
  // rescheduling; nothing of it may linger in the pool once the run drains.
  Simulator s(1);
  int count = 0;
  EventHandle h;
  h = s.every(SimTime::ms(10), SimTime::ms(10), [&] {
    if (++count == 3) h.cancel();
  });
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.queue().live_events(), 0u);
}

TEST(Simulator, PeriodicSelfCancelThenNewTimerReusesSlots) {
  // Slot-pool reuse across timer lifetimes: a second periodic timer created
  // after the first self-cancels runs on recycled slots without cross-talk.
  Simulator s(1);
  int first = 0, second = 0;
  EventHandle h1;
  h1 = s.every(SimTime::ms(10), SimTime::ms(10), [&] {
    if (++first == 5) h1.cancel();
  });
  s.run_until(SimTime::ms(200));
  EXPECT_EQ(first, 5);

  EventHandle h2;
  h2 = s.every(SimTime::ms(10), SimTime::ms(10), [&] {
    if (++second == 4) h2.cancel();
  });
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(first, 5);   // the dead timer must not resurrect on reused slots
  EXPECT_EQ(second, 4);
  EXPECT_EQ(s.queue().live_events(), 0u);
}

TEST(Simulator, CancelledPeriodicTimerRunsNoFurtherEvent) {
  // Cancelling frees the timer's one slot: its pending tick is a tombstone,
  // not an empty event that still runs.
  Simulator s(1);
  auto h = s.every(SimTime::ms(100), SimTime::ms(100), [] {});
  s.run_until(SimTime::ms(350));
  const std::uint64_t ran = s.events_executed();
  EXPECT_EQ(ran, 3u);
  h.cancel();
  s.run_until(SimTime::sec(2));
  EXPECT_EQ(s.events_executed(), ran);
}

TEST(Simulator, PeriodicTimerIsPendingInsideItsOwnCallback) {
  Simulator s(1);
  int count = 0;
  std::vector<bool> pending_before, pending_after;
  EventHandle h;
  h = s.every(SimTime::ms(10), SimTime::ms(10), [&] {
    pending_before.push_back(h.pending());
    if (++count == 2) h.cancel();
    pending_after.push_back(h.pending());
  });
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(pending_before, (std::vector<bool>{true, true}));
  EXPECT_EQ(pending_after, (std::vector<bool>{true, false}));
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, OneShotAtTheNextTickInstantRunsBeforeTheTick) {
  // A tick re-files its slot after its callback returns, so a one-shot the
  // callback schedules for the next tick's instant is older and runs first.
  Simulator s(1);
  std::vector<std::string> order;
  const auto log = [&](const char* what) {
    order.push_back(what + std::to_string(s.now().as_us() / 1000));
  };
  s.every(SimTime::ms(10), SimTime::ms(10), [&] {
    log("tick@");
    if (order.size() == 1) s.after(SimTime::ms(10), [&] { log("one-shot@"); });
  });
  s.run_until(SimTime::ms(30));
  EXPECT_EQ(order, (std::vector<std::string>{"tick@10", "one-shot@20", "tick@20", "tick@30"}));
}

TEST(Simulator, StaleEventHandleAfterSlotReuse) {
  // Simulator-level version of the generation check: a handle whose event
  // fired stays inert even after its pooled slot hosts a new event.
  Simulator s(1);
  bool second_fired = false;
  EventHandle first = s.after(SimTime::ms(1), [] {});
  s.run_until(SimTime::ms(5));
  EXPECT_FALSE(first.pending());
  EventHandle second = s.after(SimTime::ms(1), [&] { second_fired = true; });
  first.cancel();  // stale; must not cancel `second` in the reused slot
  EXPECT_TRUE(second.pending());
  s.run_until(SimTime::ms(10));
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, MakeRngDeterministicByTag) {
  Simulator a(77), b(77);
  Rng ra = a.make_rng(5), rb = b.make_rng(5);
  EXPECT_EQ(ra.next(), rb.next());
  Rng rc = a.make_rng(6);
  Rng rd = a.make_rng(5);
  (void)rc;
  EXPECT_EQ(rd.next(), b.make_rng(5).next());
}

TEST(Simulator, EventCountReflectsExecution) {
  Simulator s(1);
  for (int i = 0; i < 42; ++i) s.after(SimTime::ms(i), [] {});
  s.run_until(SimTime::sec(1));
  EXPECT_EQ(s.events_executed(), 42u);
}

}  // namespace
}  // namespace hg::sim
