#include "scenario/experiment.hpp"

#include "common/assert.hpp"

namespace hg::scenario {

NetworkPlan ExperimentConfig::network_plan() const {
  NetworkPlan plan;
  plan.loss_rate = loss_rate;
  plan.discipline = discipline;
  plan.latency = latency;
  return plan;
}

PopulationPlan ExperimentConfig::population_plan() const {
  PopulationPlan plan;
  plan.node_count = node_count;
  plan.distribution = distribution;
  plan.source_capability = source_capability;
  plan.smart_receivers = smart_receivers;

  plan.node.mode = mode;
  plan.node.gossip.period = gossip_period;
  plan.node.gossip.base_fanout = fanout;
  plan.node.gossip.retransmit_period = retransmit_period;
  plan.node.gossip.max_retransmits = max_retransmits;
  plan.node.gossip.gc_window_horizon = gc_window_horizon;
  plan.node.aggregation = aggregation;
  plan.node.max_fanout = max_fanout;
  plan.node.rounding = rounding;
  plan.lean_players = lean_players;
  return plan;
}

StreamPlan ExperimentConfig::stream_plan() const {
  return StreamPlan{stream, stream_windows, stream_start};
}

ChurnPlan ExperimentConfig::churn_plan() const { return ChurnPlan{churn, detection}; }

ParallelPlan ExperimentConfig::parallel_plan() const {
  return ParallelPlan{workers, partitions, placement, epoch_widening};
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}

Experiment::~Experiment() = default;

void Experiment::run() {
  HG_ASSERT_MSG(!ran_, "Experiment::run is single-shot");
  ran_ = true;

  deployment_ = Deployment::Builder{}
                    .seed(config_.seed)
                    .network(config_.network_plan())
                    .population(config_.population_plan())
                    .stream(config_.stream_plan())
                    .churn(config_.churn_plan())
                    .parallel(config_.parallel_plan())
                    .node_factory(config_.node_factory)
                    .build();
  deployment_->start();

  analyzer_ = std::make_unique<stream::LagAnalyzer>(deployment_->source());

  // Snapshot upload counters when the stream ends: Fig. 4's usage is the
  // mean upload rate while the stream is live. At P >= 2 the snapshot is a
  // barrier control task — every partition has drained to stream_end()
  // before it reads the meters.
  deployment_->schedule_control(config_.stream_end(), [this]() {
    for (std::size_t i = 0; i < deployment_->receivers(); ++i) {
      ReceiverInfo& info = deployment_->info(i);
      info.uploaded_bytes_at_stream_end = deployment_->meter(i).total_sent_bytes();
    }
  });

  deployment_->run_until(config_.run_end());
}

double Experiment::upload_usage(std::size_t i) const {
  const ReceiverInfo& info = deployment_->info(i);
  if (info.capability.is_unlimited()) return 0.0;
  const double bits = static_cast<double>(info.uploaded_bytes_at_stream_end) * 8.0;
  const double capacity_bits =
      static_cast<double>(info.capability.bits_per_sec()) *
      config_.stream_end().as_sec();
  return bits / capacity_bits;
}

}  // namespace hg::scenario
