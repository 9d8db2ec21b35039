// Superstep-sharded execution of one simulation (Pregel-style).
//
// Nodes are partitioned into P blocks — contiguous by default, or an explicit
// placement map recorded in the run plan — each owned by its own Simulator
// (clock + event queue). The run advances in epochs no wider than the minimum
// cross-partition network latency: every partition drains its local events
// for the epoch in parallel, cross-partition messages accumulate in
// outboxes, and a barrier exchanges and deterministically orders them before
// the next epoch — a message sent during epoch k can only arrive at or after
// the start of epoch k+1, so no partition ever sees an event from its own
// future.
//
// Determinism is by construction, not by scheduling discipline: P is fixed
// by configuration (never derived from the worker count), each partition's
// event order is sequentially deterministic, and the exchange orders imports
// by (arrival time, seed-derived tiebreak, source partition, send index).
// Workers only map partitions onto threads, so any worker count >= 1
// produces bit-identical results. Every partition Simulator is seeded with
// the *run* seed: a node's random streams are functions of its id alone, so
// the partition layout (count or placement) cannot change results either —
// any P >= 2 produces bit-identical output for a given run seed.
//
// P == 1 is a pure delegation shell around one Simulator: control tasks
// become plain events and run_until forwards directly, so a single-partition
// engine runs the sequential event loop exactly. Every deployment runs on
// this class; workers == 0 in the run plan means P == 1 on the calling
// thread, and unit tests build a one-partition engine of their node count.
//
// Adaptive epoch widening: before each epoch the barrier polls every
// partition's next-event horizon. When the earliest pending event lies past
// the epoch end, the barrier fast-forwards straight to it (capped by the
// next control task and the run bound) instead of grinding through empty
// min-latency epochs — this collapses the quiescent tails of churn and
// startup phases. The widened jump never crosses a scheduled control task,
// and since it only happens when no events exist before the target, no
// partition can emit a datagram inside the skipped span: the epoch-width
// arrival invariant is untouched.
//
// Cross-partition side effects that are *not* datagrams (churn kills, failure
// detection drains, metric snapshots) run as control tasks: single-threaded
// callbacks executed between epochs at their exact timestamp, before any
// partition processes local events carrying the same timestamp — mirroring
// the sequential discipline where same-time churn preempts protocol timers.
// Thread-safety contract: the engine itself is driven by ONE thread (the
// caller of run_until). Worker threads only ever execute inside the two
// pool_.run() phases, during which they touch exclusively their own
// partition's Simulator and bridge state — nothing on this class. Everything
// else here (control_, now_, the epoch counters) is therefore confined to
// the driving thread *between* phases. That discipline is runtime-enforced:
// quiescent() flips around every parallel phase, and entry points that must
// only run between epochs (schedule_control, NetworkFabric::kill, ...)
// HG_ASSERT it — calling them from a worker-driven event aborts the run
// instead of corrupting it. The WorkerPool barrier provides the
// happens-before edges; TSan verifies there is no unsynchronized access
// (see the tsan CI job).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hg::sim {

// Exchange hooks the engine invokes around each epoch. Implemented by the
// network fabric; the sim layer stays free of net dependencies.
class PartitionBridge {
 public:
  virtual ~PartitionBridge() = default;
  // Runs on `partition`'s worker at the start of an epoch, before any event:
  // release resources handed to other partitions last epoch.
  virtual void begin_epoch(std::uint32_t partition) = 0;
  // Runs on `partition`'s worker after the barrier: gather every message
  // destined for this partition, order deterministically, schedule locally.
  virtual void exchange(std::uint32_t partition) = 0;
};

class ShardedEngine {
 public:
  struct Config {
    std::uint32_t partitions = 1;  // P: fixed by config, independent of workers
    std::size_t workers = 1;       // W: threads driving the partitions
    // Maximum superstep width. Must not exceed the minimum cross-partition
    // message latency; zero means "no datagram traffic is epoch-bound" (only
    // valid with partitions == 1, where everything is local).
    SimTime epoch = SimTime::zero();
    // Explicit node -> partition map (size node_count, every partition
    // non-empty). Empty means balanced contiguous blocks. Placement is part
    // of the run plan, not a tuning knob discovered at runtime: with
    // run-seeded partitions it cannot change results, only the volume of
    // cross-partition traffic.
    std::vector<std::uint32_t> placement{};
    // Adaptive epoch widening (see file comment). On by default; results are
    // identical either way — only the barrier count changes.
    bool epoch_widening = true;
  };

  // `seed` roots the run exactly like a sequential Simulator(seed):
  // make_rng(tag) returns the same stream either way, and every partition
  // Simulator is seeded with `seed` itself so node-id-salted component
  // streams are independent of the partition layout. `node_count` fixes the
  // partition blocks. Degenerate requests (more partitions than nodes) clamp
  // to a single partition — the delegation shell — rather than to a sea of
  // near-empty shards whose barrier cost would dwarf the run.
  ShardedEngine(std::uint64_t seed, std::size_t node_count, Config config);

  [[nodiscard]] std::uint32_t partitions() const { return partitions_; }
  // Threads driving the partitions: config.workers clamped to
  // [1, partitions()], so no thread exists without a partition to run.
  [[nodiscard]] std::size_t workers() const { return pool_.workers(); }
  [[nodiscard]] SimTime epoch() const { return epoch_; }
  [[nodiscard]] SimTime now() const {
    return partitions_ == 1 ? partition_sims_[0]->now() : now_;
  }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] bool epoch_widening() const { return widen_; }

  // Partition owning a node: placement map if configured, else balanced
  // contiguous blocks (partition p owns nodes [lo, hi)).
  [[nodiscard]] std::uint32_t partition_of(std::uint32_t node_index) const;
  [[nodiscard]] Simulator& sim_of(std::uint32_t partition) {
    return *partition_sims_[partition];
  }
  [[nodiscard]] Simulator& sim_of_node(std::uint32_t node_index) {
    return sim_of(partition_of(node_index));
  }

  // Same root streams as a Simulator(seed) — component streams (population
  // assignment, latency bases, churn) draw identical values at every
  // partition count.
  [[nodiscard]] Rng make_rng(std::uint64_t stream_tag) const {
    return root_rng_.fork(stream_tag);
  }

  void set_bridge(PartitionBridge* bridge) { bridge_ = bridge; }

  // Runs `fn` single-threaded at exactly `when` (>= now), between epochs and
  // before local events at the same timestamp. Tasks at equal times run in
  // scheduling order; a task may schedule further control tasks (including at
  // the current time). With one partition the task becomes a plain event on
  // the underlying Simulator (the sequential interleaving).
  void schedule_control(SimTime when, std::function<void()> fn);

  // Advances every partition to `until` in lockstepped epochs; events
  // scheduled exactly at `until` are processed (matching Simulator::run_until)
  // and the cross-partition messages they send are exchanged before it
  // returns, so splitting a run across calls loses no message.
  // Returns the number of events executed by this call.
  std::uint64_t run_until(SimTime until);

  // Total events executed across all partitions.
  [[nodiscard]] std::uint64_t events_executed() const;

  // Superstep accounting: barrier intervals actually run, and the empty
  // min-latency epochs that adaptive widening skipped over. Both are
  // functions of the seed and the run plan only — identical at every worker
  // count, and (for P >= 2) at every partition count.
  [[nodiscard]] std::uint64_t epochs_run() const { return epochs_run_; }
  [[nodiscard]] std::uint64_t epochs_skipped() const { return epochs_skipped_; }

  // Guard seam for epoch widening: a widened barrier target must never jump
  // past a scheduled control task (churn kills, detector drains, metric
  // snapshots would silently run late). run_until routes every widened jump
  // through this check; exposed so tests can exercise the guard directly.
  void assert_widen_safe(SimTime target) const;

  // True between epochs (workers parked at the barrier) and outside run_until
  // — the only states in which engine/fabric mutation (schedule_control,
  // kill) is legal. False exactly while a parallel phase runs.
  // Relaxed atomic: the flag is written by the driving thread only; a read
  // from a worker can only be a contract violation about to abort, and the
  // atomic keeps that misuse detection itself race-free.
  [[nodiscard]] bool quiescent() const {
    return !in_parallel_phase_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] SimTime next_barrier(SimTime until);
  [[nodiscard]] SimTime widen_target(SimTime t_epoch, SimTime t_cap) const;
  void run_controls_due();

  // Runs `job` over all partitions on the pool with the quiescence flag
  // dropped for the duration (see quiescent()).
  void run_parallel_phase(const std::function<void(std::size_t)>& job);

  std::size_t node_count_;
  std::uint32_t partitions_;
  SimTime epoch_;
  bool widen_ = true;
  Rng root_rng_;
  std::vector<std::unique_ptr<Simulator>> partition_sims_;
  WorkerPool pool_;
  PartitionBridge* bridge_ = nullptr;
  SimTime now_ = SimTime::zero();
  std::atomic<bool> in_parallel_phase_{false};
  // Ordered; equal keys preserve insertion order (multimap inserts at the
  // upper bound of the equal range). Driving thread only, between phases.
  std::multimap<SimTime, std::function<void()>> control_;
  std::vector<std::uint32_t> placement_;  // empty = contiguous blocks
  std::size_t block_base_ = 0;            // nodes per partition block
  std::size_t block_rem_ = 0;             // first block_rem_ partitions hold one extra
  std::uint64_t epochs_run_ = 0;
  std::uint64_t epochs_skipped_ = 0;
};

}  // namespace hg::sim
