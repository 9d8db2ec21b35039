// Deployment: the assembled system under test — engine, network fabric,
// membership directory, one protocol stack + player per peer, a stream
// source, and a churn schedule.
//
// Assembly is split into four composable plans (network, population, stream,
// churn) glued together by a Builder, so scenarios can vary one axis without
// re-describing the rest, and a pluggable NodeFactory handing out
// core::NodeRuntime stacks so experiments can deploy per-node variants —
// misbehaving nodes (a freerider declaring less than it has) or mixed
// populations where some receivers run standard gossip inside a HEAP
// deployment. `Experiment` remains the paper-shaped front end: it flattens
// an ExperimentConfig into these plans.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/node_runtime.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "scenario/distribution.hpp"
#include "sim/sharded_engine.hpp"
#include "stream/player.hpp"
#include "stream/source.hpp"

namespace hg::scenario {

struct ChurnEvent {
  sim::SimTime at;
  double fraction = 0.0;  // share of receivers crashed simultaneously
};

// --- composable plans ------------------------------------------------------

struct NetworkPlan {
  double loss_rate = 0.005;
  net::QueueDiscipline discipline = net::QueueDiscipline::kFifo;
  net::PlanetLabLatencyConfig latency;  // PlanetLab-like pairwise latencies
};

struct PopulationPlan {
  std::size_t node_count = 270;  // receivers; the source is an extra node (id 0)
  BandwidthDistribution distribution = BandwidthDistribution::ref691();
  // Template for every receiver; capability is overwritten per node from the
  // distribution, and the gossip window geometry (packets_per_window) and
  // payload mode (virtual_payloads) from the stream plan. The rest is shared.
  core::NodeConfig node;
  // The source is a well-provisioned peer; it gossips with the same average
  // fanout but does not adapt (its capability would dwarf the estimate).
  BitRate source_capability = BitRate::mbps(10);
  bool smart_receivers = true;
  // Large-N runs: players record seen-bitmaps + per-window decode times
  // instead of per-packet arrival timestamps (see stream::Player::Recording).
  bool lean_players = false;
};

struct StreamPlan {
  stream::StreamConfig stream;        // paper defaults (551 kbps, 101+9, 1316 B)
  std::uint32_t windows = 16;         // ~31 s of stream at paper rates; > 0
  sim::SimTime start = sim::SimTime::sec(2.0);
};

struct ChurnPlan {
  std::vector<ChurnEvent> schedule;   // crashes (Fig. 10)
  membership::DetectionConfig detection;  // failure-detection latency
};

// Node -> partition placement policy. Per-node random streams are functions
// of the run seed and the node id alone, so placement can never change
// results — it only shifts where work and cross-partition traffic land.
enum class Placement : std::uint8_t {
  kContiguous = 0,  // balanced blocks by node id (the default)
  // Capability-aware snake deal: nodes sorted by declared capability
  // (descending, id-stable) are dealt 0..P-1, P-1..0, ... so every partition
  // carries a near-equal share of the upload-capability mass. Under HEAP's
  // capability-proportional fanout the busiest senders dominate epoch wall
  // clock; contiguous blocks can concentrate them (class assignment is
  // id-correlated in sorted populations), making the hottest partition the
  // barrier straggler. Deterministic: derived from the seed-assigned
  // capabilities only.
  kClustered = 1,
};

struct ParallelPlan {
  // 0 = one partition on the calling thread: the sequential event loop (the
  // default; bitwise-identical to all previous releases), whatever
  // `partitions` says. >= 1 = this many worker threads drive `partitions`
  // partitions (at most one thread per partition). Results depend only on
  // the seed — every workers >= 1 value and every partitions >= 2 count
  // yields identical bytes (partitions == 1 matches workers == 0 instead).
  std::size_t workers = 0;
  // Logical partition count; 0 = auto (scales with the population, capped at
  // 16). Fixed by configuration and never derived from `workers`, so the
  // thread count can change between machines without changing results.
  std::uint32_t partitions = 0;
  // Recorded in the plan: placement is part of the run description even
  // though it cannot affect results (see Placement).
  Placement placement = Placement::kContiguous;
  // Adaptive epoch widening (results identical on/off; off grinds every
  // min-latency epoch and is the tests' reference schedule, e.g.
  // ParallelDeterminism.EpochWideningPreservesChurnResults).
  bool epoch_widening = true;
};

struct ReceiverInfo {
  NodeId id;
  int class_index = 0;
  BitRate capability;  // declared, and enforced by the fabric
  bool crashed = false;
  sim::SimTime crashed_at = sim::SimTime::max();
  // Wire bytes this node had uploaded when the stream ended.
  std::int64_t uploaded_bytes_at_stream_end = 0;
};

class Deployment {
 public:
  // Hands out the protocol stack each node runs. The default is
  // core::NodeRuntime::make (stack selected by NodeConfig::mode); override
  // to vary the config per id — freeriders, or mixed populations choosing
  // the mode per id.
  using NodeFactory = std::function<std::unique_ptr<core::NodeRuntime>(
      sim::Simulator&, net::NetworkFabric&, membership::Directory&, NodeId,
      const core::NodeConfig&)>;

  class Builder {
   public:
    Builder& seed(std::uint64_t seed) {
      seed_ = seed;
      return *this;
    }
    Builder& network(NetworkPlan plan) {
      network_ = std::move(plan);
      return *this;
    }
    Builder& population(PopulationPlan plan) {
      population_ = std::move(plan);
      return *this;
    }
    Builder& stream(StreamPlan plan) {
      stream_ = std::move(plan);
      return *this;
    }
    Builder& churn(ChurnPlan plan) {
      churn_ = std::move(plan);
      return *this;
    }
    Builder& parallel(ParallelPlan plan) {
      parallel_ = plan;
      return *this;
    }
    Builder& node_factory(NodeFactory factory) {
      factory_ = std::move(factory);
      return *this;
    }

    // Assembles the full system and arms the churn schedule; protocol and
    // stream activity only begins at start(). Rejects a nonsense plan here,
    // with an error naming the field, rather than mid-run: a churn fraction
    // outside [0, 1], a non-monotone churn schedule, zero stream windows, and
    // (checked by the components built here) a detection config that could
    // schedule into the past or a non-positive gossip or aggregation period.
    [[nodiscard]] std::unique_ptr<Deployment> build() const;

   private:
    std::uint64_t seed_ = 1;
    NetworkPlan network_;
    PopulationPlan population_;
    StreamPlan stream_;
    ChurnPlan churn_;
    ParallelPlan parallel_;
    NodeFactory factory_;
  };

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  // Starts the source and the protocol stacks on every node (the churn
  // schedule is armed at build()). Call once, then drive run_until().
  void start();

  // True when the engine runs more than one partition (superstep epochs,
  // barrier control tasks, cross-partition exchange).
  [[nodiscard]] bool parallel() const { return engine_->partitions() > 1; }
  [[nodiscard]] sim::ShardedEngine& engine() { return *engine_; }

  // Advances the deployment to `until` (inclusive, like Simulator::run_until).
  // Returns events executed by this call.
  std::uint64_t run_until(sim::SimTime until) { return engine_->run_until(until); }
  // Schedules `fn` at absolute time `when` (ShardedEngine::schedule_control):
  // at P >= 2 it runs as a single-threaded barrier control task, before
  // local events at that time.
  void schedule_control(sim::SimTime when, std::function<void()> fn) {
    engine_->schedule_control(when, std::move(fn));
  }
  [[nodiscard]] sim::SimTime now() const { return engine_->now(); }
  [[nodiscard]] std::uint64_t events_executed() const { return engine_->events_executed(); }

  [[nodiscard]] net::NetworkFabric& fabric() { return *fabric_; }
  [[nodiscard]] const net::NetworkFabric& fabric() const { return *fabric_; }
  [[nodiscard]] membership::Directory& directory() { return *directory_; }
  [[nodiscard]] stream::StreamSource& source() { return *source_; }
  [[nodiscard]] const stream::StreamSource& source() const { return *source_; }
  [[nodiscard]] const StreamPlan& stream_plan() const { return stream_; }

  [[nodiscard]] std::size_t receivers() const { return receivers_.size(); }
  [[nodiscard]] ReceiverInfo& info(std::size_t i) { return receivers_[i].info; }
  [[nodiscard]] const ReceiverInfo& info(std::size_t i) const { return receivers_[i].info; }
  [[nodiscard]] const stream::Player& player(std::size_t i) const {
    return *receivers_[i].player;
  }
  [[nodiscard]] core::NodeRuntime& node(std::size_t i) { return *receivers_[i].node; }
  [[nodiscard]] const core::NodeRuntime& node(std::size_t i) const {
    return *receivers_[i].node;
  }
  [[nodiscard]] core::NodeRuntime& source_node() { return *source_node_; }
  [[nodiscard]] const net::TrafficMeter& meter(std::size_t i) const {
    return fabric_->meter(receivers_[i].info.id);
  }

 private:
  Deployment() = default;

  struct Receiver {
    ReceiverInfo info;
    // Declared before the node, which borrows it.
    std::unique_ptr<stream::Player> player;
    std::unique_ptr<core::NodeRuntime> node;
  };

  void apply_churn(const ChurnEvent& event);

  StreamPlan stream_;
  ChurnPlan churn_;
  // Declared first: the partition simulators the engine owns must outlive
  // every component holding a Simulator reference (links, nodes, players).
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::unique_ptr<net::NetworkFabric> fabric_;
  std::unique_ptr<membership::Directory> directory_;
  // Real-payload runs only: the one codec the source and every receiver's
  // FecModule borrow, declared before them so it outlives them.
  std::optional<fec::WindowCodec> codec_;
  std::unique_ptr<core::NodeRuntime> source_node_;
  std::unique_ptr<stream::StreamSource> source_;
  std::vector<Receiver> receivers_;
  bool started_ = false;
};

}  // namespace hg::scenario
