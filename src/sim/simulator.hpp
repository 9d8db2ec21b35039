// The simulation driver: virtual clock + event loop.
//
// Scheduling is templated end-to-end: a lambda passed to at()/after()/
// every() lands directly in the event queue's pooled slot storage without a
// std::function round-trip, so the common paths allocate nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace hg::sim {

class Simulator {
 public:
  // `seed` roots every derived random stream in the run.
  explicit Simulator(std::uint64_t seed);

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedule at an absolute virtual time (must not be in the past). Events
  // at equal times run in (key2, scheduling order): see
  // EventQueue::schedule. The sharded fabric keys datagram deliveries by
  // their seed-derived tiebreak so same-time arrivals at one node order
  // identically at every partition count.
  template <class F>
  EventHandle at(SimTime when, F&& fn, std::uint64_t key2 = 0) {
    HG_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    return queue_.schedule(when, std::forward<F>(fn), key2);
  }

  // Schedule after a delay from now.
  template <class F>
  EventHandle after(SimTime delay, F&& fn, std::uint64_t key2 = 0) {
    HG_ASSERT(delay >= SimTime::zero());
    return queue_.schedule(now_ + delay, std::forward<F>(fn), key2);
  }

  // Repeats `fn` every `period` until the returned handle is cancelled or the
  // run ends. First invocation after `initial_delay`. The timer is one queue
  // slot for its whole life; the callback may cancel its own timer.
  template <class F>
  EventHandle every(SimTime initial_delay, SimTime period, F&& fn) {
    HG_ASSERT(initial_delay >= SimTime::zero());
    return queue_.schedule_periodic(now_ + initial_delay, period, std::forward<F>(fn));
  }

  // Timestamp of the earliest live pending event, or nullopt when the queue
  // is (or prunes to) empty. The sharded engine polls this at barriers to
  // fast-forward over epochs no partition has work for.
  [[nodiscard]] std::optional<SimTime> next_event_time() {
    if (queue_.prune_and_empty()) return std::nullopt;
    return queue_.next_time();
  }

  // Runs until the queue drains or virtual time would exceed `until`.
  // Returns the number of events executed by this call.
  std::uint64_t run_until(SimTime until);

  // Like run_until but *exclusive*: processes events strictly before `until`,
  // then advances the clock to `until`. The sharded engine steps partitions in
  // epochs [T, T') with this, so events at an epoch boundary run after the
  // barrier's control tasks (churn, detection) carrying the same timestamp.
  std::uint64_t run_before(SimTime until);

  // Drain everything (tests; real experiments always bound time).
  std::uint64_t run_to_completion();

  // Derive a deterministic, component-specific random stream.
  [[nodiscard]] Rng make_rng(std::uint64_t stream_tag) const { return root_rng_.fork(stream_tag); }

  [[nodiscard]] std::uint64_t events_executed() const { return queue_.executed(); }
  [[nodiscard]] EventQueue& queue() { return queue_; }

 private:
  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  Rng root_rng_;
};

}  // namespace hg::sim
