// Scale ladder: 10k / 50k / 100k-node runs of the HEAP preset.
//
// Not a paper figure — the paper stops at ~700 PlanetLab nodes. This bench
// is the engine's scale regression: it runs scenario::ScalePreset
// populations, reports class-stratified lag/jitter percentiles pooled over
// seeds, and emits BENCH_bench_fig_scale.json with nodes/sec, events/sec,
// and peak RSS so throughput and footprint are tracked across commits.
//
// Usage: bench_fig_scale [nodes...]   (default: 10000 50000 100000)
// HG_SEEDS replicas per population run in parallel on HG_THREADS workers;
// results are bit-deterministic for a given seed regardless of HG_THREADS.
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gossip/gossip_module.hpp"
#include "scenario/scale_preset.hpp"

namespace {

using namespace hg;
using namespace hg::bench;

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// One replica's samples, its surviving receivers' end-of-run gossip state,
// and the superstep engine counters. The epoch and cross-partition counters
// are zero at one partition; all are functions of (seed, partitions,
// placement) only — never of the worker count.
Tally analyze(scenario::Experiment& e) {
  Tally t = tally_receivers(e);
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    const auto* gm = e.node(i).find_module<gossip::GossipModule>();
    if (!e.info(i).crashed && gm != nullptr) {
      t.count("gossip_state_bytes", gm->engine().state_bytes());
    }
  }
  const sim::ShardedEngine& engine = e.deployment().engine();
  if (e.deployment().parallel()) t.partitions = engine.partitions();
  t.count("epochs_run", engine.epochs_run());
  t.count("epochs_skipped", engine.epochs_skipped());
  const auto c = e.fabric().superstep_counters();
  t.count("local_datagrams", c.local_datagrams);
  t.count("xpart_datagrams", c.xpart_datagrams);
  t.count("filtered_dead", c.filtered_dead);
  t.count("xpart_exchange_bytes", c.xpart_exchange_bytes);
  return t;
}

// Rung configs. "steady": the HEAP scale preset as-is. "churn": standard
// gossip (event-driven nodes go idle between bursts, so epoch widening has
// phases to skip) plus a 20% mass crash a third of the way into the stream —
// the startup ramp, the crash wake, and the post-stream tail all exercise
// the widening and dead-destination paths.
scenario::ExperimentConfig rung_config(std::size_t n, bool churn) {
  if (!churn) {
    scenario::ExperimentConfig cfg = scenario::ScalePreset::config(n);
    cfg.partitions = env_partitions();  // 0 = auto
    return cfg;
  }
  scenario::ExperimentConfig cfg = scenario::ScalePreset::config(n, core::Mode::kStandard);
  cfg.partitions = env_partitions();
  const double stream_sec =
      cfg.stream.window_duration_sec() * static_cast<double>(cfg.stream_windows);
  cfg.churn = {{sim::SimTime::sec(2.0 + stream_sec / 3.0), 0.2}};
  cfg.detection.mean = sim::SimTime::sec(10.0);
  return cfg;
}

// Runs one rung's seed sweep, prints its report, and returns its BENCH json
// record.
JsonRecord run_rung(std::size_t n, std::size_t workers, bool churn) {
  const char* kind = churn ? "churn" : "steady";
  const std::size_t seeds = seeds_from_env();
  std::fprintf(stderr, "[bench] scale rung (%s): %zu nodes, %zu seed%s, %zu worker%s...\n",
               kind, n, seeds, seeds == 1 ? "" : "s", workers, workers == 1 ? "" : "s");
  scenario::ExperimentConfig cfg = rung_config(n, churn);
  cfg.workers = workers;
  const auto [t, wall] = pooled_sweep(cfg, analyze);
  const double rss_mb = peak_rss_mb();

  const auto events = static_cast<double>(t.counter("events"));
  const double node_runs = static_cast<double>(n * seeds);
  const double state_per_node = static_cast<double>(t.counter("gossip_state_bytes")) / node_runs;
  // Share of fabric sends that had to cross a partition boundary (dead-
  // destination drops count as sends: the sender paid for them).
  const std::uint64_t xpart = t.counter("xpart_datagrams");
  const std::uint64_t sends = t.counter("local_datagrams") + xpart + t.counter("filtered_dead");
  const double xpart_fraction =
      sends > 0 ? static_cast<double>(xpart) / static_cast<double>(sends) : 0.0;
  const double xpart_mb =
      static_cast<double>(t.counter("xpart_exchange_bytes")) / (1024.0 * 1024.0);

  std::printf("--- %zu nodes, %s (%zu seed%s, %zu worker%s) ---\n", n, kind, seeds,
              seeds == 1 ? "" : "s", workers, workers == 1 ? "" : "s");
  std::printf(
      "wall %.1f s | %.0f events/s | %.0f node-runs/s | peak RSS %.0f MB | gossip state "
      "%.0f B/node\n",
      wall, events / wall, node_runs / wall, rss_mb, state_per_node);
  if (t.partitions > 0) {
    std::printf(
        "superstep: %u partitions | %llu epochs (+%llu skipped) | %llu xpart msgs "
        "(%.1f%% of sends) | %.1f MB exchanged\n",
        t.partitions, static_cast<unsigned long long>(t.counter("epochs_run")),
        static_cast<unsigned long long>(t.counter("epochs_skipped")),
        static_cast<unsigned long long>(xpart), 100.0 * xpart_fraction, xpart_mb);
  }

  metrics::Table table({"class", "nodes", "lag p50", "lag p90", "lag p99", "jitter% p50",
                        "jitter% p90", "jitter% p99"});
  std::vector<JsonRecord> classes;
  for (std::size_t c = 0; c < t.lag.size(); ++c) {
    const std::string& name = cfg.distribution.classes()[c].name;
    const std::size_t nodes = t.lag[c].count();
    std::vector<std::string> row{name, std::to_string(nodes)};
    JsonRecord& json = classes.emplace_back();
    json.set("class", name).set("nodes", nodes);
    const auto p = percentiles(t.lag[c], t.jitter[c]);
    for (std::size_t k = 0; k < p.size(); ++k) {
      row.push_back(metrics::Table::num(p[k]));
      json.set(kPercentileKeys[k], p[k]);
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());

  return JsonRecord()
      .set("nodes", n)
      .set("scenario", kind)
      .set("seeds", seeds)
      .set("workers", workers)
      .set("wall_sec", wall)
      .set("events", t.counter("events"))
      .set("events_per_sec", per_sec(events, wall))
      .set("nodes_per_sec", per_sec(node_runs, wall))
      .set("peak_rss_mb", rss_mb)
      .set("gossip_state_bytes_per_node", state_per_node)
      .set("partitions", t.partitions)
      .set("epochs_run", t.counter("epochs_run"))
      .set("epochs_skipped", t.counter("epochs_skipped"))
      .set("xpart_datagrams", xpart)
      .set("xpart_exchange_bytes", t.counter("xpart_exchange_bytes"))
      .set("xpart_datagram_fraction", xpart_fraction)
      .set("classes", classes);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> ladder;
  for (int i = 1; i < argc; ++i) {
    ladder.push_back(
        static_cast<std::size_t>(hg::parse_env_int("nodes argument", argv[i], 1, 10'000'000)));
  }
  if (ladder.empty()) ladder = {10'000, 50'000, 100'000};

  print_header("Scale ladder: HEAP at 10k-100k nodes",
               "engine scale regression (beyond the paper's 700-node testbed)",
               "class stratification persists at large N; footprint stays bounded");

  const std::size_t workers = workers_from_env();
  std::vector<JsonRecord> runs;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    runs.push_back(run_rung(ladder[i], workers, /*churn=*/false));
    // Churn rung (smallest population only): standard-mode nodes idle
    // between gossip bursts, so this is where epochs_skipped and the
    // dead-destination filter actually move.
    if (i == 0) runs.push_back(run_rung(ladder[i], workers, /*churn=*/true));
  }
  write_bench_json(JsonRecord().set("bench", bench_binary_name()).set("runs", runs));
  return 0;
}
