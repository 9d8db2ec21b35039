// Large-scale run: the 100k-node machinery on one population.
//
//   ./large_scale [receivers]        (default 10000)
//
// Uses scenario::ScalePreset — virtual payloads, lean players, capped
// aggregation, ln(N)+c fanout — and reports class-stratified stream quality.
// A 10k-node run finishes in about a minute; 100k in minutes, not hours.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"
#include "metrics/percentile.hpp"
#include "scenario/scale_preset.hpp"
#include "stream/lag_analyzer.hpp"

int main(int argc, char** argv) {
  using namespace hg;

  const std::size_t receivers =
      argc > 1 ? static_cast<std::size_t>(parse_env_int("receivers", argv[1], 1, 10'000'000))
               : 10'000;

  scenario::ExperimentConfig cfg = scenario::ScalePreset::config(receivers);
  std::printf("large_scale: %zu receivers, HEAP, fanout %.1f, %u windows, virtual payloads\n",
              receivers, cfg.fanout, cfg.stream_windows);

  const auto t0 = std::chrono::steady_clock::now();
  scenario::Experiment e(std::move(cfg));
  e.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto& classes = e.config().distribution.classes();
  std::vector<metrics::Samples> jitter(classes.size());
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    const auto c = static_cast<std::size_t>(e.info(i).class_index);
    jitter[c].add(100.0 * e.analyzer().jitter_fraction(e.player(i), 10.0));
  }

  std::printf("\njitter%% of windows at 10 s lag, by capability class:\n");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (jitter[c].empty()) continue;
    std::printf("  %-12s %6zu nodes   p50 %6.2f   p90 %6.2f   p99 %6.2f\n",
                classes[c].name.c_str(), jitter[c].count(), jitter[c].percentile(50),
                jitter[c].percentile(90), jitter[c].percentile(99));
  }

  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("\n%.1f s wall | %.0f events/s | peak RSS %.0f MB\n", wall,
              static_cast<double>(e.events_executed()) / wall,
              static_cast<double>(ru.ru_maxrss) / 1024.0);
  return 0;
}
