#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"

namespace hg::sim {

namespace {

std::uint32_t clamp_partitions(std::uint32_t requested, std::size_t node_count) {
  const std::uint32_t partitions = requested == 0 ? 1 : requested;
  if (node_count > 0 && partitions > node_count) {
    // More partitions than nodes is a degenerate plan (empty shards would
    // still pay every barrier). Collapse to the single-partition delegation
    // shell, which runs the sequential loop.
    return 1;
  }
  return partitions;
}

}  // namespace

ShardedEngine::ShardedEngine(std::uint64_t seed, std::size_t node_count, Config config)
    : node_count_(node_count),
      partitions_(clamp_partitions(config.partitions, node_count)),
      epoch_(config.epoch),
      widen_(config.epoch_widening),
      root_rng_(seed),
      // A thread beyond the partition count would wake at every phase with
      // nothing to run.
      pool_(std::clamp<std::size_t>(config.workers, 1, partitions_)) {
  HG_ASSERT_MSG(partitions_ == 1 || epoch_ > SimTime::zero(),
                "multiple partitions require a positive epoch width (the minimum "
                "cross-partition latency)");
  if (partitions_ > 1 && !config.placement.empty()) {
    HG_ASSERT_MSG(config.placement.size() == node_count_,
                  "placement map must cover every node");
    std::vector<std::size_t> sizes(partitions_, 0);
    for (std::uint32_t p : config.placement) {
      HG_ASSERT_MSG(p < partitions_, "placement entry names a nonexistent partition");
      ++sizes[p];
    }
    for (std::uint32_t p = 0; p < partitions_; ++p) {
      HG_ASSERT_MSG(sizes[p] > 0, "placement map leaves a partition empty");
    }
    placement_ = std::move(config.placement);
  }
  partition_sims_.reserve(partitions_);
  for (std::uint32_t p = 0; p < partitions_; ++p) {
    // Every partition runs off the *run* seed: component streams fork from it
    // salted by node id (or stream tag), never by partition, so the partition
    // layout cannot perturb any random draw.
    partition_sims_.push_back(std::make_unique<Simulator>(seed));
  }
  block_base_ = partitions_ > 0 ? node_count_ / partitions_ : 0;
  block_rem_ = partitions_ > 0 ? node_count_ % partitions_ : 0;
}

std::uint32_t ShardedEngine::partition_of(std::uint32_t node_index) const {
  HG_ASSERT(node_index < node_count_);
  if (!placement_.empty()) return placement_[node_index];
  // The first block_rem_ partitions hold (base + 1) nodes, the rest base.
  const std::size_t i = node_index;
  const std::size_t wide = block_rem_ * (block_base_ + 1);
  if (i < wide) return static_cast<std::uint32_t>(i / (block_base_ + 1));
  return static_cast<std::uint32_t>(block_rem_ + (i - wide) / block_base_);
}

void ShardedEngine::schedule_control(SimTime when, std::function<void()> fn) {
  if (partitions_ == 1) {
    // Delegation shell: control tasks are ordinary events, interleaved with
    // protocol events purely by (time, scheduling order) — the sequential
    // discipline.
    partition_sims_[0]->at(when, std::move(fn));
    return;
  }
  HG_ASSERT_MSG(quiescent(),
                "schedule_control called from inside a parallel phase; control tasks "
                "may only be scheduled between epochs (setup code or another control "
                "task), never from a worker-driven event");
  HG_ASSERT_MSG(when >= now_, "cannot schedule a control task into the past");
  control_.emplace(when, std::move(fn));
}

void ShardedEngine::run_controls_due() {
  while (!control_.empty() && control_.begin()->first <= now_) {
    auto it = control_.begin();
    auto fn = std::move(it->second);
    control_.erase(it);
    fn();  // may schedule further control tasks, including at now_
  }
}

void ShardedEngine::assert_widen_safe(SimTime target) const {
  HG_ASSERT_MSG(target >= now_, "widened barrier target lies in the past");
  HG_ASSERT_MSG(control_.empty() || control_.begin()->first >= target,
                "epoch widening must not jump past a scheduled control task");
}

SimTime ShardedEngine::widen_target(SimTime t_epoch, SimTime t_cap) const {
  // Earliest pending event across all partitions. Computed at the barrier,
  // after the previous exchange: every in-flight datagram is already queued
  // at its destination, so the horizon is a function of the run state alone —
  // identical at every worker and partition count.
  std::optional<SimTime> horizon;
  for (const auto& s : partition_sims_) {
    const auto t = s->next_event_time();
    if (t.has_value() && (!horizon.has_value() || *t < *horizon)) horizon = *t;
  }
  if (!horizon.has_value()) return t_cap;   // fully quiescent: next control/bound
  if (*horizon < t_epoch) return t_epoch;   // work inside the epoch: no widening
  return std::min(*horizon, t_cap);
}

SimTime ShardedEngine::next_barrier(SimTime until) {
  // Control tasks and the run bound cap every barrier, widened or not.
  SimTime cap = until;
  if (!control_.empty() && control_.begin()->first < cap) cap = control_.begin()->first;
  if (epoch_ <= SimTime::zero() || now_ + epoch_ >= cap) return cap;
  const SimTime t_epoch = now_ + epoch_;
  if (!widen_) return t_epoch;
  const SimTime target = widen_target(t_epoch, cap);
  if (target > t_epoch) {
    assert_widen_safe(target);
    // Count the empty min-latency epochs this jump replaces. ceil((target -
    // now) / epoch) barriers would have run; this one counts as run below.
    const std::int64_t span = (target - now_).as_us();
    const std::int64_t w = epoch_.as_us();
    epochs_skipped_ += static_cast<std::uint64_t>((span + w - 1) / w - 1);
  }
  return target;
}

void ShardedEngine::run_parallel_phase(const std::function<void(std::size_t)>& job) {
  in_parallel_phase_.store(true, std::memory_order_relaxed);
  pool_.run(partitions_, job);
  in_parallel_phase_.store(false, std::memory_order_relaxed);
}

std::uint64_t ShardedEngine::run_until(SimTime until) {
  if (partitions_ == 1) return partition_sims_[0]->run_until(until);
  HG_ASSERT_MSG(until >= now_, "cannot run into the past");
  const std::uint64_t before = events_executed();
  // Exchange phase: import cross-partition messages on their destination's
  // worker, in deterministic order.
  const auto exchange = [&] {
    if (bridge_ == nullptr) return;
    run_parallel_phase([&](std::size_t p) { bridge_->exchange(static_cast<std::uint32_t>(p)); });
  };
  run_controls_due();  // tasks armed at exactly now_ (e.g. time zero)
  while (now_ < until) {
    const SimTime next = next_barrier(until);
    ++epochs_run_;
    // Epoch phase: each partition first releases the messages it handed out
    // last epoch, then drains its local events strictly before the barrier.
    // Events *at* the barrier time wait for control tasks carrying the same
    // timestamp (churn preempts same-time protocol activity, as at one
    // partition).
    run_parallel_phase([&](std::size_t p) {
      if (bridge_ != nullptr) bridge_->begin_epoch(static_cast<std::uint32_t>(p));
      partition_sims_[p]->run_before(next);
    });
    // Arrivals are >= next by the epoch invariant (send time >= epoch
    // start, delay >= epoch width).
    exchange();
    now_ = next;
    run_controls_due();
  }
  // Inclusive tail: events scheduled exactly at `until` run (the sequential
  // run_until contract). Cross-partition messages they emit arrive strictly
  // after `until`; exchanging them here leaves them queued at their
  // destination, as they would be in a sequential run. Left in the outbox,
  // the next call's begin_epoch would release them undelivered.
  run_parallel_phase([&](std::size_t p) {
    if (bridge_ != nullptr) bridge_->begin_epoch(static_cast<std::uint32_t>(p));
    partition_sims_[p]->run_until(until);
  });
  exchange();
  return events_executed() - before;
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : partition_sims_) total += s->events_executed();
  return total;
}

}  // namespace hg::sim
