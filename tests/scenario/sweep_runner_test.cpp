#include "scenario/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scenario/report.hpp"

namespace hg::scenario {
namespace {

ExperimentConfig tiny_cfg() {
  ExperimentConfig cfg;
  cfg.node_count = 30;
  cfg.stream_windows = 2;
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.tail = sim::SimTime::sec(15.0);
  return cfg;
}

// Everything a replica produces that the figures consume, captured exactly.
struct SeedMetrics {
  std::uint64_t events = 0;
  std::vector<std::uint64_t> packets_received;
  std::vector<std::int64_t> sent_bytes;
  std::vector<double> lag_samples;

  bool operator==(const SeedMetrics&) const = default;
};

SeedMetrics collect(Experiment& e) {
  SeedMetrics m;
  m.events = e.events_executed();
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    m.packets_received.push_back(e.player(i).packets_received());
    m.sent_bytes.push_back(e.meter(i).total_sent_bytes());
  }
  m.lag_samples = stream_fraction_lags(e, 0.99).values();
  return m;
}

TEST(SweepRunner, SeedSweepSubstitutesSeeds) {
  const auto configs = SweepRunner::seed_sweep(tiny_cfg(), {11, 22, 33});
  ASSERT_EQ(configs.size(), 3u);
  EXPECT_EQ(configs[0].seed, 11u);
  EXPECT_EQ(configs[1].seed, 22u);
  EXPECT_EQ(configs[2].seed, 33u);
  EXPECT_EQ(configs[0].node_count, configs[2].node_count);
}

TEST(SweepRunner, ParallelSweepBitwiseIdenticalToSequential) {
  // The acceptance property of the engine refactor: 8 seeds on 8 threads
  // merge to exactly the metrics of 8 sequential runs — replicas share
  // nothing, and results land by job index, not completion order.
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};
  const auto configs = SweepRunner::seed_sweep(tiny_cfg(), seeds);

  std::vector<SeedMetrics> sequential;
  for (const auto& cfg : configs) {
    Experiment exp(cfg);
    exp.run();
    sequential.push_back(collect(exp));
  }

  SweepRunner parallel(SweepOptions{.threads = 8});
  const auto swept = parallel.map(configs, collect);

  ASSERT_EQ(swept.size(), sequential.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(swept[i], sequential[i]) << "seed " << seeds[i];
  }
  // Different seeds must actually be different realizations.
  EXPECT_NE(swept[0], swept[1]);
}

TEST(SweepRunner, RunExperimentsKeepsConfigOrder) {
  auto base = tiny_cfg();
  base.node_count = 20;
  base.stream_windows = 1;
  base.tail = sim::SimTime::sec(10.0);
  SweepRunner runner(SweepOptions{.threads = 4});
  const auto exps = runner.run_experiments(SweepRunner::seed_sweep(base, {5, 6, 7, 8}));
  ASSERT_EQ(exps.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_NE(exps[i], nullptr);
    EXPECT_EQ(exps[i]->config().seed, 5 + i);
    EXPECT_GT(exps[i]->events_executed(), 0u);
  }
}

TEST(SweepRunner, MapOverDistinctConfigs) {
  // Seeds × configs: the runner is agnostic to what varies between jobs.
  auto heap = tiny_cfg();
  auto standard = tiny_cfg();
  standard.mode = core::Mode::kStandard;
  SweepRunner runner(SweepOptions{.threads = 2});
  const auto modes = runner.map(std::vector<ExperimentConfig>{heap, standard},
                                [](Experiment& e) { return e.config().mode; });
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_EQ(modes[0], core::Mode::kHeap);
  EXPECT_EQ(modes[1], core::Mode::kStandard);
}

}  // namespace
}  // namespace hg::scenario
