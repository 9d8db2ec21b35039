// Experiment runner: the paper-shaped front end over the composable
// Deployment builder. One flat ExperimentConfig describes a complete run —
// population, network, stream, churn — which run() decomposes into the
// deployment plans, executes to run_end(), and exposes to the report
// builders.
//
// This is the in-silico equivalent of the paper's 270-node PlanetLab
// testbed driver. An Experiment shares nothing with another, so seed
// replicas can run concurrently, one per thread (the benches run them on a
// sim::WorkerPool).
#pragma once

#include <memory>
#include <vector>

#include "scenario/deployment.hpp"
#include "stream/lag_analyzer.hpp"

namespace hg::scenario {

struct ExperimentConfig {
  // Population: receivers; the source is an extra node (id 0).
  std::size_t node_count = 270;

  core::Mode mode = core::Mode::kHeap;
  double fanout = 7.0;  // fixed fanout (standard) / average fanout (HEAP)
  BandwidthDistribution distribution = BandwidthDistribution::ref691();

  stream::StreamConfig stream;        // paper defaults (551 kbps, 101+9, 1316 B)
  std::uint32_t stream_windows = 16;  // ~31 s of stream at paper rates
  sim::SimTime stream_start = sim::SimTime::sec(2.0);
  // Extra simulated time after the last packet so late deliveries and the
  // lag tail (up to 60 s in the paper's plots) are observable.
  sim::SimTime tail = sim::SimTime::sec(65.0);

  // The source is a well-provisioned peer; it gossips with the same average
  // fanout but does not adapt (its capability would dwarf the estimate).
  BitRate source_capability = BitRate::mbps(10);

  // Network.
  double loss_rate = 0.005;
  net::QueueDiscipline discipline = net::QueueDiscipline::kFifo;
  net::PlanetLabLatencyConfig latency;

  // Churn (Fig. 10): crashes + failure-detection latency.
  std::vector<ChurnEvent> churn;
  membership::DetectionConfig detection;

  // Protocol details.
  sim::SimTime gossip_period = sim::SimTime::ms(200);
  sim::SimTime retransmit_period = sim::SimTime::ms(1000);
  int max_retransmits = 8;
  std::uint32_t gc_window_horizon = 40;  // per-event state horizon (windows)
  aggregation::AggregationConfig aggregation;
  double max_fanout = 64.0;
  gossip::FanoutRounding rounding = gossip::FanoutRounding::kRandomized;
  bool smart_receivers = true;

  // Large-scale switch (see scenario::ScalePreset for the tuned bundle):
  // drops per-packet arrival timestamps.
  bool lean_players = false;

  // Intra-run parallelism (see ParallelPlan): workers == 0 runs one
  // partition on the calling thread (the sequential loop); workers >= 1
  // drives `partitions` partitions, whose results depend only on the seed —
  // never on workers, the partition count (any >= 2), or the placement
  // policy.
  std::size_t workers = 0;
  std::uint32_t partitions = 0;  // 0 = auto
  Placement placement = Placement::kContiguous;
  bool epoch_widening = true;

  // Optional override of how each node's runtime is built, e.g. a mixed
  // population choosing the mode per id. Null: NodeRuntime::make.
  Deployment::NodeFactory node_factory;

  std::uint64_t seed = 1;

  [[nodiscard]] sim::SimTime stream_end() const {
    return stream_start + sim::SimTime::sec(stream.window_duration_sec() *
                                            static_cast<double>(stream_windows));
  }
  [[nodiscard]] sim::SimTime run_end() const { return stream_end() + tail; }

  // Decomposition into the deployment plans (run() uses these; scenarios
  // that want to swap one axis can take them piecemeal).
  [[nodiscard]] NetworkPlan network_plan() const;
  [[nodiscard]] PopulationPlan population_plan() const;
  [[nodiscard]] StreamPlan stream_plan() const;
  [[nodiscard]] ChurnPlan churn_plan() const;
  [[nodiscard]] ParallelPlan parallel_plan() const;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Builds the deployment and runs to run_end(). Call once.
  void run();

  // --- results (valid after run()) ---------------------------------------
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const stream::LagAnalyzer& analyzer() const { return *analyzer_; }
  [[nodiscard]] std::size_t receivers() const { return deployment_->receivers(); }

  using ReceiverInfo = scenario::ReceiverInfo;

  [[nodiscard]] const ReceiverInfo& info(std::size_t i) const { return deployment_->info(i); }
  [[nodiscard]] const stream::Player& player(std::size_t i) const {
    return deployment_->player(i);
  }
  [[nodiscard]] const core::NodeRuntime& node(std::size_t i) const {
    return deployment_->node(i);
  }
  [[nodiscard]] const net::TrafficMeter& meter(std::size_t i) const {
    return deployment_->meter(i);
  }
  [[nodiscard]] const net::NetworkFabric& fabric() const { return deployment_->fabric(); }
  [[nodiscard]] const stream::StreamSource& source() const { return deployment_->source(); }
  [[nodiscard]] Deployment& deployment() { return *deployment_; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return deployment_->events_executed();
  }

  // Mean upload usage (fraction of the upload capability) over the stream
  // interval, including all protocol overhead — Fig. 4's quantity.
  [[nodiscard]] double upload_usage(std::size_t i) const;

 private:
  ExperimentConfig config_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<stream::LagAnalyzer> analyzer_;
  bool ran_ = false;
};

}  // namespace hg::scenario
