// Head-to-head: standard homogeneous gossip vs HEAP on the paper's most
// skewed distribution (ms-691: 85% of nodes below the stream rate), same
// average fanout, same network. Reproduces the core claim of the paper in
// one screen of output.
//
// The two runs differ in NodeConfig::mode alone: standard nodes gossip at a
// fixed fanout; HEAP nodes add capability aggregation driving the Eq. 1
// adaptive fanout.
//
//   $ ./examples/heap_vs_standard [nodes] [windows]
#include <cstdio>
#include <cstdlib>

#include "core/heap.hpp"

namespace {

void run_one(hg::core::Mode mode, const char* label, std::size_t nodes,
             std::uint32_t windows) {
  using namespace hg;
  scenario::ExperimentConfig cfg;
  cfg.node_count = nodes;
  cfg.stream_windows = windows;
  cfg.mode = mode;
  cfg.distribution = scenario::BandwidthDistribution::ms691();
  cfg.seed = 7;

  scenario::Experiment exp(cfg);
  exp.run();

  std::printf("--- %s (stack: gossip%s) ---\n", label,
              exp.node(0).find_module<aggregation::AggregationModule>() != nullptr
                  ? " aggregation"
                  : "");
  std::printf("  %-10s %7s %12s %14s %16s\n", "class", "nodes", "upload-use",
              "jitter@10s", "delivery-ratio");
  const auto usage = scenario::usage_by_class(exp);
  const auto quality = scenario::jitter_free_pct_by_class(exp, 10.0);
  const auto delivery = scenario::delivery_in_jittered_by_class(exp, 10.0);
  for (std::size_t c = 0; c < usage.size(); ++c) {
    std::printf("  %-10s %7zu %11.1f%% %13.1f%% %15.1f%%\n", usage[c].class_name.c_str(),
                usage[c].nodes, usage[c].value * 100.0,
                (1.0 - quality[c].value) * 100.0, delivery[c].value * 100.0);
  }
  const auto lags = scenario::jitter_free_lags(exp, 0.0);
  if (lags.empty()) {
    std::printf("  no node ever reached a jitter-free stream\n");
  } else {
    std::printf("  jitter-free stream: %zu/%zu nodes, median lag %.1f s, p90 %.1f s\n",
                lags.count(), exp.receivers(), lags.percentile(50), lags.percentile(90));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t nodes = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 270;
  const std::uint32_t windows =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 16;

  std::printf("ms-691 (85%% of nodes below stream rate), %zu nodes, avg fanout 7\n\n",
              nodes);
  run_one(hg::core::Mode::kStandard, "standard gossip", nodes, windows);
  run_one(hg::core::Mode::kHeap, "HEAP", nodes, windows);
  return 0;
}
