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
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gossip/gossip_module.hpp"
#include "scenario/scale_preset.hpp"
#include "scenario/sweep_runner.hpp"

namespace {

using namespace hg;

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

constexpr double kLagCapSec = 60.0;    // "never jitter-free" cap (plot axis)
constexpr double kJitterLagSec = 10.0;  // paper's headline operating point

// Per-seed results: percentile set over all surviving receivers plus the
// protocol counters that distinguish the repair strategies. All fields are
// functions of the seed alone — never of HG_WORKERS.
struct SeedStats {
  std::uint64_t events = 0;
  double lag_p50 = 0, lag_p90 = 0, lag_p99 = 0;
  double jitter_p50 = 0, jitter_p90 = 0, jitter_p99 = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t serves_sent = 0;
  std::uint64_t retx_retries = 0;
  std::uint64_t retx_gave_up = 0;
  std::uint64_t windows_cancelled = 0;
  std::uint64_t timers_cancelled = 0;
  std::int64_t sent_bytes = 0;  // receiver upload volume, protocol included
};

SeedStats analyze(const scenario::Experiment& e) {
  auto lag = metrics::Samples::streaming();
  auto jitter = metrics::Samples::streaming();
  SeedStats s;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    const auto to_jitter_free = e.analyzer().lag_to_jitter_at_most(e.player(i), 0.0);
    lag.add(std::min(to_jitter_free.value_or(kLagCapSec), kLagCapSec));
    jitter.add(100.0 * e.analyzer().jitter_fraction(e.player(i), kJitterLagSec));
    if (const auto* gm = e.node(i).find_module<gossip::GossipModule>()) {
      const auto& gs = gm->engine().stats();
      s.requests_sent += gs.requests_sent;
      s.serves_sent += gs.serves_sent;
      s.windows_cancelled += gs.windows_cancelled;
      s.timers_cancelled += gs.timers_cancelled_by_window;
      const auto& rs = gm->engine().retransmit_stats();
      s.retx_retries += rs.retries_fired;
      s.retx_gave_up += rs.gave_up;
    }
    s.sent_bytes += e.meter(i).total_sent_bytes();
  }
  if (!lag.empty()) {
    s.lag_p50 = lag.percentile(50);
    s.lag_p90 = lag.percentile(90);
    s.lag_p99 = lag.percentile(99);
    s.jitter_p50 = jitter.percentile(50);
    s.jitter_p90 = jitter.percentile(90);
    s.jitter_p99 = jitter.percentile(99);
  }
  return s;
}

struct ArmRow {
  const Arm* arm = nullptr;
  std::size_t nodes = 0;
  std::size_t seeds = 0;
  std::size_t workers = 0;
  double wall_sec = 0;
  // Percentiles are seed-order means; counters are summed over seeds.
  SeedStats sum;
};

ArmRow run_arm(std::size_t n, const Arm& arm, std::size_t n_seeds, std::size_t threads,
               std::size_t workers) {
  std::fprintf(stderr, "[bench] fec ablation: %zu nodes, arm %-9s (%zu seed%s, %zu worker%s)...\n",
               n, arm.label, n_seeds, n_seeds == 1 ? "" : "s", workers,
               workers == 1 ? "" : "s");
  scenario::ExperimentConfig cfg = scenario::ScalePreset::config(n);
  cfg.partitions = env_partitions();  // 0 = auto
  cfg.stream.parity_per_window = arm.parity;
  cfg.max_retransmits = arm.max_retransmits;
  cfg.workers = workers;

  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(cfg.seed + i);

  const auto t0 = std::chrono::steady_clock::now();
  scenario::SweepRunner runner(
      scenario::SweepOptions{.threads = threads, .workers_per_job = workers});
  auto per_seed = runner.map(scenario::SweepRunner::seed_sweep(std::move(cfg), seeds),
                            [](scenario::Experiment& e) {
                              SeedStats s = analyze(e);
                              s.events = e.events_executed();
                              return s;
                            });

  ArmRow row;
  row.arm = &arm;
  row.nodes = n;
  row.seeds = n_seeds;
  row.workers = workers;
  row.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const SeedStats& s : per_seed) {
    row.sum.events += s.events;
    row.sum.lag_p50 += s.lag_p50;
    row.sum.lag_p90 += s.lag_p90;
    row.sum.lag_p99 += s.lag_p99;
    row.sum.jitter_p50 += s.jitter_p50;
    row.sum.jitter_p90 += s.jitter_p90;
    row.sum.jitter_p99 += s.jitter_p99;
    row.sum.requests_sent += s.requests_sent;
    row.sum.serves_sent += s.serves_sent;
    row.sum.retx_retries += s.retx_retries;
    row.sum.retx_gave_up += s.retx_gave_up;
    row.sum.windows_cancelled += s.windows_cancelled;
    row.sum.timers_cancelled += s.timers_cancelled;
    row.sum.sent_bytes += s.sent_bytes;
  }
  const auto ns = static_cast<double>(per_seed.size());
  row.sum.lag_p50 /= ns;
  row.sum.lag_p90 /= ns;
  row.sum.lag_p99 /= ns;
  row.sum.jitter_p50 /= ns;
  row.sum.jitter_p90 /= ns;
  row.sum.jitter_p99 /= ns;
  return row;
}

void print_rows(const std::vector<ArmRow>& rows) {
  metrics::Table t({"arm", "parity", "rtx", "lag p50", "lag p90", "lag p99", "jitter% p50",
                    "jitter% p90", "jitter% p99", "retx retries", "win cancels", "MB sent"});
  for (const ArmRow& r : rows) {
    t.add_row({r.arm->label, std::to_string(r.arm->parity),
               std::to_string(r.arm->max_retransmits), metrics::Table::num(r.sum.lag_p50),
               metrics::Table::num(r.sum.lag_p90), metrics::Table::num(r.sum.lag_p99),
               metrics::Table::num(r.sum.jitter_p50), metrics::Table::num(r.sum.jitter_p90),
               metrics::Table::num(r.sum.jitter_p99), std::to_string(r.sum.retx_retries),
               std::to_string(r.sum.windows_cancelled),
               metrics::Table::num(static_cast<double>(r.sum.sent_bytes) / (1024.0 * 1024.0))});
  }
  std::printf("%s\n", t.render().c_str());
}

void write_json(const std::vector<ArmRow>& rows) {
  std::FILE* f = hg::bench::open_bench_json();
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", hg::bench::bench_binary_name());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ArmRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"nodes\": %zu, \"arm\": \"%s\", \"parity\": %zu, "
        "\"max_retransmits\": %d, \"seeds\": %zu, \"workers\": %zu, "
        "\"wall_sec\": %.3f, \"events\": %llu, \"events_per_sec\": %.1f, "
        "\"lag_p50\": %.4f, \"lag_p90\": %.4f, \"lag_p99\": %.4f, "
        "\"jitter_pct_p50\": %.4f, \"jitter_pct_p90\": %.4f, \"jitter_pct_p99\": %.4f, "
        "\"requests_sent\": %llu, \"serves_sent\": %llu, "
        "\"retx_retries\": %llu, \"retx_gave_up\": %llu, "
        "\"windows_cancelled\": %llu, \"timers_cancelled\": %llu, "
        "\"sent_bytes\": %lld}%s\n",
        r.nodes, r.arm->label, r.arm->parity, r.arm->max_retransmits, r.seeds, r.workers,
        r.wall_sec, static_cast<unsigned long long>(r.sum.events),
        r.wall_sec > 0 ? static_cast<double>(r.sum.events) / r.wall_sec : 0.0,
        r.sum.lag_p50, r.sum.lag_p90, r.sum.lag_p99, r.sum.jitter_p50, r.sum.jitter_p90,
        r.sum.jitter_p99, static_cast<unsigned long long>(r.sum.requests_sent),
        static_cast<unsigned long long>(r.sum.serves_sent),
        static_cast<unsigned long long>(r.sum.retx_retries),
        static_cast<unsigned long long>(r.sum.retx_gave_up),
        static_cast<unsigned long long>(r.sum.windows_cancelled),
        static_cast<unsigned long long>(r.sum.timers_cancelled),
        static_cast<long long>(r.sum.sent_bytes), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hg::bench;

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
  hg::warn_if_oversubscribed(workers, threads_from_env() > 0 ? threads_from_env()
                                                             : seeds_from_env());
  std::vector<ArmRow> rows;
  for (const std::size_t n : rungs) {
    std::printf("--- %zu nodes ---\n", n);
    std::vector<ArmRow> rung_rows;
    for (const Arm& arm : kArms) {
      rung_rows.push_back(run_arm(n, arm, seeds_from_env(), threads_from_env(), workers));
    }
    print_rows(rung_rows);
    for (ArmRow& r : rung_rows) rows.push_back(std::move(r));
  }

  write_json(rows);
  return 0;
}
