// Quickstart: stream video over HEAP to a heterogeneous swarm and print
// what the viewers experienced.
//
//   $ ./examples/quickstart [nodes] [windows]
#include <cstdio>
#include <cstdlib>

#include "core/heap.hpp"

int main(int argc, char** argv) {
  using namespace hg;

  scenario::ExperimentConfig cfg;
  cfg.node_count = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 100;
  cfg.stream_windows = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
  cfg.mode = core::Mode::kHeap;
  cfg.fanout = 7.0;
  cfg.distribution = scenario::BandwidthDistribution::ms691();
  cfg.tail = sim::SimTime::sec(30.0);
  cfg.seed = 42;

  std::printf("heapgossip quickstart\n");
  std::printf("  nodes        : %zu (+1 source)\n", cfg.node_count);
  std::printf("  distribution : %s (avg %.0f kbps, CSR %.2f)\n",
              cfg.distribution.name().c_str(), cfg.distribution.average_kbps(),
              cfg.distribution.csr(cfg.stream.effective_rate_kbps()));
  std::printf("  stream       : %.0f kbps effective, %u windows (%.1f s)\n",
              cfg.stream.effective_rate_kbps(), cfg.stream_windows,
              cfg.stream.window_duration_sec() * cfg.stream_windows);

  scenario::Experiment exp(cfg);
  exp.run();

  std::printf("\nsimulated %.1f s of wall-clock, %llu events\n\n",
              exp.config().run_end().as_sec(),
              static_cast<unsigned long long>(exp.events_executed()));

  // Stream quality at a 10 s playback lag, per capability class.
  auto quality = scenario::jitter_free_pct_by_class(exp, 10.0);
  std::printf("jitter-free windows at 10 s lag, by class:\n");
  for (const auto& c : quality) {
    std::printf("  %-10s (%3zu nodes): %5.1f%%\n", c.class_name.c_str(), c.nodes,
                c.value * 100.0);
  }

  auto lags = scenario::jitter_free_lags(exp, /*max_jitter=*/0.0);
  if (!lags.empty()) {
    std::printf("\nlag to a fully jitter-free stream (%zu/%zu nodes reached it):\n",
                lags.count(), exp.receivers());
    std::printf("  median %.1f s | p75 %.1f s | p90 %.1f s\n", lags.percentile(50),
                lags.percentile(75), lags.percentile(90));
  }

  // What did HEAP's aggregation think the average capability was? Each node
  // is a protocol stack; the aggregation module is looked up by type.
  double est_sum = 0;
  std::size_t est_n = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    if (const auto* agg = exp.node(i).find_module<aggregation::AggregationModule>()) {
      est_sum += agg->aggregator().average_capability_bps() / 1000.0;
      ++est_n;
    }
  }
  if (est_n > 0) {
    std::printf("\naggregation estimate of avg capability: %.0f kbps (true: %.0f kbps)\n",
                est_sum / static_cast<double>(est_n), cfg.distribution.average_kbps());
  }
  return 0;
}
