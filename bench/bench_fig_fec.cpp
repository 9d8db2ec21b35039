// FEC-vs-retransmission ablation at scale.
//
// The paper's stream protocol pairs a proactive window code (101 data + 9
// parity, §2) with reactive per-packet retransmission (Algorithm 2). This
// bench isolates the two repair mechanisms on ScalePreset populations: a
// retransmission-only arm (parity 0), pure-FEC arms at two parity budgets,
// and the combined arm the paper runs. Per arm it reports pooled lag/jitter
// percentiles plus the deterministic repair counters (requests, serves,
// retransmit retries, decode-on-k cancellations, bytes sent), and emits
// BENCH_bench_fig_fec.json.
//
// Usage: bench_fig_fec [nodes...]   (default: 10000; the paper-scale
// ablation adds 100000). All simulation metrics are bit-deterministic for a
// given seed regardless of HG_WORKERS / HG_THREADS.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gossip/gossip_module.hpp"
#include "scenario/scale_preset.hpp"

namespace {

using namespace hg;
using namespace hg::bench;

// One repair-strategy arm of the ablation. Everything else (population,
// network, stream rate, window geometry) is the shared ScalePreset.
struct Arm {
  const char* label;
  std::size_t parity;    // parity packets per 101-data window
  int max_retransmits;   // 0 disables the reactive path entirely
};

constexpr Arm kArms[] = {
    {"rtx-only", 0, 8},   // Algorithm 2 alone: every loss needs a round trip
    {"fec-5", 5, 0},      // half the paper's parity budget, no retransmission
    {"fec-9", 9, 0},      // the paper's parity budget, no retransmission
    {"fec-9+rtx", 9, 8},  // the paper's combined configuration
};

// One replica's samples plus the protocol counters that distinguish the
// repair strategies, over surviving receivers. All are functions of the
// seed alone — never of HG_WORKERS.
Tally analyze(const scenario::Experiment& e) {
  Tally t = tally_receivers(e);
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    if (const auto* gm = e.node(i).find_module<gossip::GossipModule>()) {
      const auto& gs = gm->engine().stats();
      const auto& rs = gm->engine().retransmit_stats();
      t.count("requests_sent", gs.requests_sent);
      t.count("serves_sent", gs.serves_sent);
      t.count("retx_retries", rs.retries_fired);
      t.count("retx_gave_up", rs.gave_up);
      t.count("windows_cancelled", gs.windows_cancelled);
      t.count("timers_cancelled", gs.timers_cancelled_by_window);
    }
    // Receiver upload volume, protocol included.
    t.count("sent_bytes", static_cast<std::uint64_t>(e.meter(i).total_sent_bytes()));
  }
  return t;
}

// Runs one arm's seed sweep, adds its row to `table`, and returns its BENCH
// json record: percentiles over every surviving receiver of every seed, and
// the counters summed over seeds.
JsonRecord run_arm(std::size_t n, const Arm& arm, std::size_t workers, metrics::Table& table) {
  const std::size_t seeds = seeds_from_env();
  std::fprintf(stderr, "[bench] fec ablation: %zu nodes, arm %-9s (%zu seed%s, %zu worker%s)...\n",
               n, arm.label, seeds, seeds == 1 ? "" : "s", workers, workers == 1 ? "" : "s");
  scenario::ExperimentConfig cfg = scenario::ScalePreset::config(n);
  cfg.partitions = env_partitions();  // 0 = auto
  cfg.stream.parity_per_window = arm.parity;
  cfg.max_retransmits = arm.max_retransmits;
  cfg.workers = workers;
  const auto [t, wall] = pooled_sweep(std::move(cfg), analyze);

  metrics::Samples lag;
  metrics::Samples jitter;
  for (std::size_t c = 0; c < t.lag.size(); ++c) {
    lag.merge_from(t.lag[c]);
    jitter.merge_from(t.jitter[c]);
  }
  const auto p = percentiles(lag, jitter);
  JsonRecord json;
  json.set("nodes", n)
      .set("arm", arm.label)
      .set("parity", arm.parity)
      .set("max_retransmits", arm.max_retransmits)
      .set("seeds", seeds)
      .set("workers", workers)
      .set("wall_sec", wall)
      .set("events_per_sec", per_sec(static_cast<double>(t.counter("events")), wall));
  for (std::size_t k = 0; k < p.size(); ++k) json.set(kPercentileKeys[k], p[k]);
  for (const auto& [name, value] : t.counters) json.set(name, value);

  std::vector<std::string> row{arm.label, std::to_string(arm.parity),
                               std::to_string(arm.max_retransmits)};
  for (const double v : p) row.push_back(metrics::Table::num(v));
  row.push_back(std::to_string(t.counter("retx_retries")));
  row.push_back(std::to_string(t.counter("windows_cancelled")));
  row.push_back(
      metrics::Table::num(static_cast<double>(t.counter("sent_bytes")) / (1024.0 * 1024.0)));
  table.add_row(std::move(row));
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> rungs;
  for (int i = 1; i < argc; ++i) {
    rungs.push_back(
        static_cast<std::size_t>(hg::parse_env_int("nodes argument", argv[i], 1, 10'000'000)));
  }
  if (rungs.empty()) rungs = {10'000};

  print_header("FEC vs retransmission: repair-strategy ablation at scale",
               "the paper's proactive (window FEC) + reactive (Algorithm 2) split",
               "parity trades constant overhead for loss-independent lag; "
               "retransmission alone pays a round trip per loss");

  const std::size_t workers = workers_from_env();
  std::vector<JsonRecord> runs;
  for (const std::size_t n : rungs) {
    std::printf("--- %zu nodes ---\n", n);
    metrics::Table table({"arm", "parity", "rtx", "lag p50", "lag p90", "lag p99",
                          "jitter% p50", "jitter% p90", "jitter% p99", "retx retries",
                          "win cancels", "MB sent"});
    for (const Arm& arm : kArms) runs.push_back(run_arm(n, arm, workers, table));
    std::printf("%s\n", table.render().c_str());
  }
  write_bench_json(JsonRecord().set("bench", bench_binary_name()).set("runs", runs));
  return 0;
}
