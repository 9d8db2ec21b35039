// Shared plumbing for the figure/table reproduction binaries.
//
// Scale control: HG_SCALE=quick (default) runs ~23 s streams; HG_SCALE=paper
// runs the paper's full ~180 s streams (93 windows). Either way the binary
// prints the same series the paper's figure shows.
//
// Replication control: HG_SEEDS=n (default 1) runs every experiment as n
// seeds in parallel on a sim::WorkerPool of HG_THREADS threads (default:
// hardware cores), and the report helpers below pool/average across the
// replicas. With the default HG_SEEDS=1 the output matches a plain
// single-run binary.
//
// Every binary also writes BENCH_<name>.json through write_bench_json
// (wall-clock and simulated events per sweep, plus the scale benches'
// results) so the engine's throughput can be tracked across commits.
// HG_BENCH_JSON_DIR overrides the output directory; HG_BENCH_JSON=0
// disables the file.
#pragma once

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "core/heap.hpp"
#include "metrics/table.hpp"
#include "sim/parallel.hpp"

namespace hg::bench {

// Name of the running binary, for the BENCH_<name>.json file.
inline const char* bench_binary_name() {
#if defined(__GLIBC__)
  return program_invocation_short_name;
#else
  return "bench";
#endif
}

struct Scale {
  std::size_t nodes = 270;
  std::uint32_t windows = 12;    // ~23 s of stream
  double grid_max_sec = 40.0;    // lag axis of the CDF plots
  std::size_t grid_steps = 21;
  sim::SimTime tail = sim::SimTime::sec(45.0);
};

inline Scale scale_from_env() {
  Scale s;
  const char* env = std::getenv("HG_SCALE");
  if (env != nullptr && std::strcmp(env, "paper") == 0) {
    s.windows = 93;  // ~180 s, the paper's run length
    s.grid_max_sec = 60.0;
    s.grid_steps = 25;
    s.tail = sim::SimTime::sec(65.0);
  }
  return s;
}

// Strict parsing (common/env.hpp): zero, negative, or garbage values abort
// with a clear message instead of silently falling back — a typo'd
// HG_SEEDS must not quietly produce a single-seed "sweep".
inline std::size_t seeds_from_env() {
  return static_cast<std::size_t>(env_int_or("HG_SEEDS", 1, 1, 100000));
}

inline std::size_t threads_from_env() {
  // Unset = 0 = one thread per hardware core; an explicit value must be a
  // positive thread count.
  return static_cast<std::size_t>(env_int_or("HG_THREADS", 0, 1, 4096));
}

inline std::size_t workers_from_env() {
  // HG_WORKERS: intra-run worker threads (superstep-sharded engine).
  // Unset/0 = the classic sequential event loop.
  return env_workers();
}

inline scenario::ExperimentConfig base_config(const Scale& s, core::Mode mode,
                                              scenario::BandwidthDistribution dist,
                                              double fanout = 7.0,
                                              std::uint64_t seed = 2009) {
  scenario::ExperimentConfig cfg;
  cfg.node_count = s.nodes;
  cfg.stream_windows = s.windows;
  cfg.tail = s.tail;
  cfg.mode = mode;
  cfg.fanout = fanout;
  cfg.distribution = std::move(dist);
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// BENCH_*.json emission
// ---------------------------------------------------------------------------

// One JSON object whose keys keep their insertion order. A value is a
// number, a string, or a list of records; each is rendered when set.
class JsonRecord {
 public:
  template <class T>
    requires std::is_arithmetic_v<T>
  JsonRecord& set(std::string_view key, T v) {
    char buf[32];
    if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else if constexpr (std::is_integral_v<T>) {
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    } else {
      if (!std::isfinite(v)) return put(key, "null");  // JSON has no NaN or infinity
      std::snprintf(buf, sizeof buf, "%.10g", static_cast<double>(v));
    }
    return put(key, buf);
  }
  JsonRecord& set(std::string_view key, std::string_view v) { return put(key, quoted(v)); }
  // Lists put one record per line.
  JsonRecord& set(std::string_view key, const std::vector<JsonRecord>& list) {
    std::string text = "[";
    for (const JsonRecord& r : list) text += (text.size() == 1 ? "\n  " : ",\n  ") + r.text();
    return put(key, text + "]");
  }

  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonRecord& put(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ", ";
    body_ += quoted(key);
    body_ += ": ";
    body_ += value;
    return *this;
  }
  static std::string quoted(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  }

  std::string body_;
};

inline double per_sec(double count, double wall_sec) {
  return wall_sec > 0 ? count / wall_sec : 0.0;
}

// Writes `doc` to BENCH_<binary>.json. HG_BENCH_JSON=0 disables the file;
// HG_BENCH_JSON_DIR overrides its directory (default cwd).
inline void write_bench_json(const JsonRecord& doc) {
  const char* toggle = std::getenv("HG_BENCH_JSON");
  if (toggle != nullptr && std::strcmp(toggle, "0") == 0) return;
  std::string dir = ".";
  if (const char* d = std::getenv("HG_BENCH_JSON_DIR"); d != nullptr && *d != '\0') dir = d;
  const std::string path = dir + "/BENCH_" + bench_binary_name() + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s: %s\n", path.c_str(), std::strerror(errno));
    return;
  }
  std::fprintf(f, "%s\n", doc.text().c_str());
  std::fclose(f);
}

// The figure benches' BENCH json: run() records every sweep, and the file
// is written at exit with totals over all of them.
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  void record(JsonRecord run, double wall_sec, std::uint64_t events) {
    runs_.push_back(std::move(run));
    wall_sec_ += wall_sec;
    events_ += events;
  }

  ~JsonReport() {
    if (runs_.empty()) return;
    const char* scale = std::getenv("HG_SCALE");
    write_bench_json(JsonRecord()
                         .set("bench", bench_binary_name())
                         .set("scale", scale != nullptr ? scale : "quick")
                         .set("total_wall_sec", wall_sec_)
                         .set("total_events", events_)
                         .set("total_events_per_sec",
                              per_sec(static_cast<double>(events_), wall_sec_))
                         .set("runs", runs_));
  }

 private:
  std::vector<JsonRecord> runs_;
  double wall_sec_ = 0.0;
  std::uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// Seed replicas
// ---------------------------------------------------------------------------

// Warns, once per process, when `replicas` concurrent runs of `workers`
// engine threads each ask for more threads than the machine has cores.
// Oversubscribing turns a parallelism knob into a slowdown knob, which
// users reliably misread as a regression — warn, don't die (CI runners
// legitimately overcommit).
inline void warn_if_oversubscribed(std::size_t replicas, std::size_t workers) {
  static bool warned = false;
  const unsigned cores = std::thread::hardware_concurrency();
  if (warned || replicas <= 1 || workers <= 1 || cores == 0) return;
  if (replicas * workers <= cores) return;
  warned = true;
  std::fprintf(stderr,
               "WARNING: %zu concurrent replicas x HG_WORKERS=%zu run %zu threads on %u "
               "hardware cores; expect slowdown, not speedup (results are unaffected)\n",
               replicas, workers, replicas * workers, cores);
}

// Runs `cfg` as HG_SEEDS replicas, replica i at seed cfg.seed + i, and hands
// each finished one to `done(i, experiment)` on the thread that ran it.
// Replicas run on a sim::WorkerPool of HG_THREADS threads divided by the
// intra-run worker count (so 8 threads with 4-worker runs run two replicas
// at a time, not 32 threads), capped by the seed count. Replicas share
// nothing and callers store results by index, so the output never depends
// on the thread count. Returns the sweep's wall-clock seconds.
template <class Done>
double run_replicas(const scenario::ExperimentConfig& cfg, Done&& done) {
  const std::size_t seeds = seeds_from_env();
  std::size_t threads = threads_from_env();
  if (threads == 0) threads = std::max(1U, std::thread::hardware_concurrency());
  if (cfg.workers > 1) threads = std::max<std::size_t>(1, threads / cfg.workers);
  const auto t0 = std::chrono::steady_clock::now();
  sim::WorkerPool pool(std::min(threads, seeds));
  warn_if_oversubscribed(pool.workers(), cfg.workers);
  pool.run(seeds, [&](std::size_t i) {
    scenario::ExperimentConfig replica = cfg;
    replica.seed = cfg.seed + i;
    auto exp = std::make_unique<scenario::Experiment>(std::move(replica));
    exp->run();
    done(i, std::move(exp));
  });
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Multi-seed experiment sets
// ---------------------------------------------------------------------------

// The finished replicas of one experiment configuration (HG_SEEDS runs), in
// seed order.
struct SeedSet {
  std::vector<std::unique_ptr<scenario::Experiment>> runs;

  // Receivers over all replicas.
  [[nodiscard]] std::size_t receivers() const {
    std::size_t n = 0;
    for (const auto& r : runs) n += r->receivers();
    return n;
  }

  // Publish timeline is seed-independent (the source schedule is fixed).
  [[nodiscard]] const stream::LagAnalyzer& analyzer() const { return runs.front()->analyzer(); }
};

// Runs `cfg`'s replicas and keeps them all, with a progress note on stderr
// (stdout carries only the tables), and records the sweep in the JSON
// report.
inline SeedSet run(scenario::ExperimentConfig cfg, const char* label) {
  const std::size_t n_seeds = seeds_from_env();
  if (cfg.workers == 0) cfg.workers = workers_from_env();
  const bool heap = cfg.mode == core::Mode::kHeap;
  std::fprintf(stderr,
               "[bench] running %-28s (%s, %zu nodes, %u windows, %zu seed%s, %zu worker%s)...\n",
               label, heap ? "HEAP" : "standard", cfg.node_count, cfg.stream_windows, n_seeds,
               n_seeds == 1 ? "" : "s", cfg.workers, cfg.workers == 1 ? "" : "s");

  JsonRecord record;
  record.set("label", label)
      .set("mode", heap ? "heap" : "standard")
      .set("nodes", cfg.node_count)
      .set("windows", cfg.stream_windows)
      .set("seeds", n_seeds)
      .set("workers", cfg.workers);
  SeedSet set{std::vector<std::unique_ptr<scenario::Experiment>>(n_seeds)};
  const double wall =
      run_replicas(cfg, [&](std::size_t i, std::unique_ptr<scenario::Experiment> exp) {
        set.runs[i] = std::move(exp);
      });
  std::uint64_t events = 0;
  for (const auto& e : set.runs) events += e->events_executed();
  record.set("wall_sec", wall)
      .set("events", events)
      .set("events_per_sec", per_sec(static_cast<double>(events), wall));
  JsonReport::instance().record(std::move(record), wall, events);
  return set;
}

// ---------------------------------------------------------------------------
// Report builders pooled across replicas
// ---------------------------------------------------------------------------

// Per-node samples: pool all replicas into one distribution.
template <class Fn>
metrics::Samples pooled_samples(const SeedSet& set, Fn&& per_run) {
  metrics::Samples out;
  for (const auto& run : set.runs) out.merge_from(per_run(*run));
  return out;
}

inline metrics::Samples stream_fraction_lags(const SeedSet& set, double fraction) {
  return pooled_samples(set, [&](const scenario::Experiment& e) {
    return scenario::stream_fraction_lags(e, fraction);
  });
}
inline metrics::Samples jitter_free_lags(const SeedSet& set, double max_jitter) {
  return pooled_samples(set, [&](const scenario::Experiment& e) {
    return scenario::jitter_free_lags(e, max_jitter);
  });
}
inline metrics::Samples jitter_percent_at_lag(const SeedSet& set, double lag_sec) {
  return pooled_samples(set, [&](const scenario::Experiment& e) {
    return scenario::jitter_percent_at_lag(e, lag_sec);
  });
}
inline metrics::Samples jitter_percent_offline(const SeedSet& set) {
  return pooled_samples(
      set, [](const scenario::Experiment& e) { return scenario::jitter_percent_offline(e); });
}

// Per-class stats pooled across replicas (scenario::pool_class_stats).
template <class Fn>
std::vector<scenario::ClassStat> merged_class_stats(const SeedSet& set, Fn&& per_run) {
  std::vector<std::vector<scenario::ClassStat>> per_seed;
  per_seed.reserve(set.runs.size());
  for (const auto& run : set.runs) per_seed.push_back(per_run(*run));
  return scenario::pool_class_stats(per_seed);
}

inline std::vector<scenario::ClassStat> usage_by_class(const SeedSet& set) {
  return merged_class_stats(
      set, [](const scenario::Experiment& e) { return scenario::usage_by_class(e); });
}
inline std::vector<scenario::ClassStat> jitter_free_pct_by_class(const SeedSet& set,
                                                                 double lag_sec) {
  return merged_class_stats(set, [&](const scenario::Experiment& e) {
    return scenario::jitter_free_pct_by_class(e, lag_sec);
  });
}
inline std::vector<scenario::ClassStat> mean_lag_to_jitter_free_by_class(const SeedSet& set,
                                                                         double cap_sec) {
  return merged_class_stats(set, [&](const scenario::Experiment& e) {
    return scenario::mean_lag_to_jitter_free_by_class(e, cap_sec);
  });
}
inline std::vector<scenario::ClassStat> jitter_free_nodes_pct_by_class(const SeedSet& set,
                                                                       double lag_sec) {
  return merged_class_stats(set, [&](const scenario::Experiment& e) {
    return scenario::jitter_free_nodes_pct_by_class(e, lag_sec);
  });
}
inline std::vector<scenario::ClassStat> delivery_in_jittered_by_class(const SeedSet& set,
                                                                      double lag_sec) {
  return merged_class_stats(set, [&](const scenario::Experiment& e) {
    return scenario::delivery_in_jittered_by_class(e, lag_sec);
  });
}

// Per-window decode series: elementwise mean across replicas (the series is
// already a percentage of the initial population).
inline std::vector<double> per_window_decode_percent(const SeedSet& set, double lag_sec) {
  std::vector<double> mean;
  for (const auto& run : set.runs) {
    const auto series = scenario::per_window_decode_percent(*run, lag_sec);
    if (mean.empty()) mean.assign(series.size(), 0.0);
    for (std::size_t w = 0; w < series.size(); ++w) mean[w] += series[w];
  }
  for (double& v : mean) v /= static_cast<double>(set.runs.size());
  return mean;
}

inline std::vector<metrics::CdfPoint> cdf_over_grid(const metrics::Samples& samples,
                                                    const std::vector<double>& grid,
                                                    std::size_t population) {
  return scenario::cdf_over_grid(samples, grid, population);
}

// ---------------------------------------------------------------------------
// Scale runs: replicas analyzed one at a time, then pooled
// ---------------------------------------------------------------------------

// Lag beyond which a node counts as never jitter-free (the paper's largest
// plotted lag), and the stream lag jitter is read at (the paper's headline
// operating point, Figs. 5/6).
constexpr double kLagCapSec = 60.0;
constexpr double kJitterLagSec = 10.0;

// Surviving receivers' samples by capability class, plus named counters.
// merge_from pools replicas in seed order: samples are appended, as
// pooled_samples does for the figures, and counters are summed by name.
struct Tally {
  // Per class: s to a jitter-free stream (capped at kLagCapSec), and % of
  // windows jittered at kJitterLagSec.
  std::vector<metrics::Samples> lag;
  std::vector<metrics::Samples> jitter;
  // In first-count order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  // Superstep layout (0: one partition): the same in every replica, so never
  // summed.
  std::uint32_t partitions = 0;

  void count(std::string_view name, std::uint64_t v) {
    for (auto& [k, sum] : counters) {
      if (k == name) {
        sum += v;
        return;
      }
    }
    counters.emplace_back(name, v);
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    for (const auto& [k, sum] : counters) {
      if (k == name) return sum;
    }
    return 0;
  }
  void merge_from(const Tally& other) {
    for (std::size_t c = 0; c < lag.size(); ++c) {
      lag[c].merge_from(other.lag[c]);
      jitter[c].merge_from(other.jitter[c]);
    }
    for (const auto& [k, v] : other.counters) count(k, v);
  }
};

// The samples of every surviving receiver of `e`, and its event count.
inline Tally tally_receivers(const scenario::Experiment& e) {
  const std::size_t classes = e.config().distribution.classes().size();
  Tally t;
  t.lag.resize(classes);
  t.jitter.resize(classes);
  t.count("events", e.events_executed());
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    const auto c = static_cast<std::size_t>(e.info(i).class_index);
    const auto to_jitter_free = e.analyzer().lag_to_jitter_at_most(e.player(i), 0.0);
    t.lag[c].add(std::min(to_jitter_free.value_or(kLagCapSec), kLagCapSec));
    t.jitter[c].add(100.0 * e.analyzer().jitter_fraction(e.player(i), kJitterLagSec));
  }
  return t;
}

// Runs `cfg`'s replicas, tallies each with `analyze` as soon as it finishes
// and frees it (so memory stays bounded by the thread count), and pools the
// tallies in seed order. Returns the pool and the sweep's wall-clock
// seconds.
template <class Fn>
std::pair<Tally, double> pooled_sweep(const scenario::ExperimentConfig& cfg, Fn&& analyze) {
  std::vector<Tally> per_seed(seeds_from_env());
  const double wall =
      run_replicas(cfg, [&](std::size_t i, std::unique_ptr<scenario::Experiment> exp) {
        per_seed[i] = analyze(*exp);
      });
  Tally pool = std::move(per_seed.front());
  for (std::size_t s = 1; s < per_seed.size(); ++s) pool.merge_from(per_seed[s]);
  return {std::move(pool), wall};
}

// p50/p90/p99 of `lag`, then of `jitter` (all 0 when no node survived),
// under their BENCH json names.
constexpr std::array<const char*, 6> kPercentileKeys = {
    "lag_p50", "lag_p90", "lag_p99", "jitter_pct_p50", "jitter_pct_p90", "jitter_pct_p99"};
inline std::array<double, 6> percentiles(const metrics::Samples& lag,
                                         const metrics::Samples& jitter) {
  std::array<double, 6> out{};
  if (lag.empty()) return out;
  constexpr double kQs[] = {50, 90, 99};
  for (std::size_t i = 0; i < 3; ++i) {
    out[i] = lag.percentile(kQs[i]);
    out[3 + i] = jitter.percentile(kQs[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

inline std::vector<double> lag_grid(const Scale& s) {
  return metrics::Cdf::uniform_grid(s.grid_max_sec, s.grid_steps);
}

inline void print_header(const char* what, const char* paper_ref,
                         const char* paper_observation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("  reproduces : %s\n", paper_ref);
  std::printf("  paper shape: %s\n", paper_observation);
  std::printf("==============================================================\n\n");
}

inline void print_class_table(const char* title,
                              const std::vector<const char*>& col_names,
                              const std::vector<std::vector<scenario::ClassStat>>& cols) {
  std::printf("%s\n", title);
  std::vector<std::string> headers{"class", "nodes"};
  for (const auto* n : col_names) headers.emplace_back(n);
  metrics::Table t(headers);
  for (std::size_t c = 0; c < cols[0].size(); ++c) {
    std::vector<std::string> row{cols[0][c].class_name, std::to_string(cols[0][c].nodes)};
    for (const auto& col : cols) row.push_back(metrics::Table::pct(col[c].value));
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace hg::bench
