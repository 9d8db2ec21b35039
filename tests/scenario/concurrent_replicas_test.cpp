// Seed replicas run concurrently on one sim::WorkerPool, as the benches run
// HG_SEEDS replicas: each replica is a self-contained Experiment, so running
// eight at once must give exactly what each seed gives alone. CI runs this
// suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/report.hpp"
#include "sim/parallel.hpp"

namespace hg::scenario {
namespace {

ExperimentConfig tiny_cfg(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.node_count = 30;
  cfg.stream_windows = 2;
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.tail = sim::SimTime::sec(15.0);
  cfg.seed = seed;
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

SeedMetrics collect(const Experiment& e) {
  SeedMetrics m;
  m.events = e.events_executed();
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    m.packets_received.push_back(e.player(i).packets_received());
    m.sent_bytes.push_back(e.meter(i).total_sent_bytes());
  }
  m.lag_samples = stream_fraction_lags(e, 0.99).values();
  return m;
}

TEST(ConcurrentReplicas, BitwiseIdenticalToSequential) {
  // 8 seeds on 8 threads give exactly the metrics of 8 sequential runs:
  // replicas share nothing, and results land by index, not completion order.
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};

  std::vector<SeedMetrics> sequential;
  for (const std::uint64_t seed : seeds) {
    Experiment exp(tiny_cfg(seed));
    exp.run();
    sequential.push_back(collect(exp));
  }

  std::vector<SeedMetrics> concurrent(seeds.size());
  sim::WorkerPool pool(seeds.size());
  pool.run(seeds.size(), [&](std::size_t i) {
    Experiment exp(tiny_cfg(seeds[i]));
    exp.run();
    concurrent[i] = collect(exp);
  });

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(concurrent[i], sequential[i]) << "seed " << seeds[i];
  }
  // Different seeds must actually be different realizations.
  EXPECT_NE(concurrent[0], concurrent[1]);
}

}  // namespace
}  // namespace hg::scenario
