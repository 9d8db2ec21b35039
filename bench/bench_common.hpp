// Shared plumbing for the figure/table reproduction binaries.
//
// Scale control: HG_SCALE=quick (default) runs ~23 s streams; HG_SCALE=paper
// runs the paper's full ~180 s streams (93 windows). Either way the binary
// prints the same series the paper's figure shows.
//
// Replication control: HG_SEEDS=n (default 1) runs every experiment as n
// seeds in parallel on HG_THREADS workers (default: hardware cores) via
// scenario::SweepRunner, and the report helpers below pool/average across
// the replicas. With the default HG_SEEDS=1 the output matches a plain
// single-run binary.
//
// Every binary also appends machine-readable timings to BENCH_<name>.json
// (wall-clock and simulator events/sec per experiment) so the engine's
// throughput can be tracked across commits. HG_BENCH_JSON_DIR overrides the
// output directory; HG_BENCH_JSON=0 disables the file.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/heap.hpp"
#include "metrics/table.hpp"

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
  // Unset = 0 = SweepRunner picks hardware concurrency; an explicit value
  // must be a positive worker count.
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

// Opens BENCH_<binary>.json for writing under the shared env contract:
// HG_BENCH_JSON=0 disables (returns nullptr), HG_BENCH_JSON_DIR overrides
// the output directory (default cwd). Caller fcloses.
inline std::FILE* open_bench_json() {
  const char* toggle = std::getenv("HG_BENCH_JSON");
  if (toggle != nullptr && std::strcmp(toggle, "0") == 0) return nullptr;
  std::string dir = ".";
  if (const char* d = std::getenv("HG_BENCH_JSON_DIR"); d != nullptr && *d != '\0') dir = d;
  const std::string path = dir + "/BENCH_" + bench_binary_name() + ".json";
  return std::fopen(path.c_str(), "w");
}

struct JsonRun {
  std::string label;
  std::string mode;
  std::size_t nodes = 0;
  std::uint32_t windows = 0;
  std::size_t seeds = 0;
  std::size_t workers = 0;  // intra-run workers (0 = sequential engine)
  double wall_sec = 0.0;
  std::uint64_t events = 0;
};

class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  void record(JsonRun run) { runs_.push_back(std::move(run)); }

  ~JsonReport() {
    if (runs_.empty()) return;
    std::FILE* f = open_bench_json();
    if (f == nullptr) return;

    double total_wall = 0.0;
    std::uint64_t total_events = 0;
    for (const auto& r : runs_) {
      total_wall += r.wall_sec;
      total_events += r.events;
    }
    const char* scale = std::getenv("HG_SCALE");
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench_binary_name());
    std::fprintf(f, "  \"scale\": \"%s\",\n", scale != nullptr ? scale : "quick");
    std::fprintf(f, "  \"total_wall_sec\": %.6f,\n", total_wall);
    std::fprintf(f, "  \"total_events\": %llu,\n",
                 static_cast<unsigned long long>(total_events));
    std::fprintf(f, "  \"total_events_per_sec\": %.1f,\n",
                 total_wall > 0 ? static_cast<double>(total_events) / total_wall : 0.0);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const JsonRun& r = runs_[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"mode\": \"%s\", \"nodes\": %zu, "
                   "\"windows\": %u, \"seeds\": %zu, \"workers\": %zu, \"wall_sec\": %.6f, "
                   "\"events\": %llu, \"events_per_sec\": %.1f}%s\n",
                   r.label.c_str(), r.mode.c_str(), r.nodes, r.windows, r.seeds, r.workers,
                   r.wall_sec, static_cast<unsigned long long>(r.events),
                   r.wall_sec > 0 ? static_cast<double>(r.events) / r.wall_sec : 0.0,
                   i + 1 < runs_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::vector<JsonRun> runs_;
};

// ---------------------------------------------------------------------------
// Multi-seed experiment sets
// ---------------------------------------------------------------------------

// The finished replicas of one experiment configuration (HG_SEEDS runs).
// Flat receiver indexing spans all replicas: [seed0's receivers, seed1's...].
struct SeedSet {
  std::vector<std::unique_ptr<scenario::Experiment>> runs;

  [[nodiscard]] const scenario::Experiment& first() const { return *runs.front(); }
  [[nodiscard]] std::size_t seeds() const { return runs.size(); }

  [[nodiscard]] std::size_t receivers() const {
    std::size_t n = 0;
    for (const auto& r : runs) n += r->receivers();
    return n;
  }

  // Publish timeline is seed-independent (the source schedule is fixed).
  [[nodiscard]] const stream::LagAnalyzer& analyzer() const { return first().analyzer(); }

  [[nodiscard]] const scenario::ReceiverInfo& info(std::size_t flat) const {
    const auto [run, i] = locate(flat);
    return runs[run]->info(i);
  }
  [[nodiscard]] double upload_usage(std::size_t flat) const {
    const auto [run, i] = locate(flat);
    return runs[run]->upload_usage(i);
  }

 private:
  [[nodiscard]] std::pair<std::size_t, std::size_t> locate(std::size_t flat) const {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (flat < runs[r]->receivers()) return {r, flat};
      flat -= runs[r]->receivers();
    }
    HG_ASSERT_MSG(false, "flat receiver index out of range");
    return {0, 0};
  }
};

// Runs `cfg` as HG_SEEDS replicas (seeds cfg.seed, cfg.seed+1, ...) in
// parallel on HG_THREADS workers, with a progress note on stderr (stdout
// carries only the tables). Records wall-clock + events into the JSON report.
inline SeedSet run(scenario::ExperimentConfig cfg, const char* label) {
  const std::size_t n_seeds = seeds_from_env();
  if (cfg.workers == 0) cfg.workers = workers_from_env();
  warn_if_oversubscribed(cfg.workers,
                         threads_from_env() > 0 ? std::min(threads_from_env(), n_seeds)
                                                : n_seeds);
  std::fprintf(stderr,
               "[bench] running %-28s (%s, %zu nodes, %u windows, %zu seed%s, %zu worker%s)...\n",
               label, cfg.mode == core::Mode::kHeap ? "HEAP" : "standard", cfg.node_count,
               cfg.stream_windows, n_seeds, n_seeds == 1 ? "" : "s", cfg.workers,
               cfg.workers == 1 ? "" : "s");

  std::vector<std::uint64_t> seeds;
  seeds.reserve(n_seeds);
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(cfg.seed + i);

  JsonRun record;
  record.label = label;
  record.mode = cfg.mode == core::Mode::kHeap ? "heap" : "standard";
  record.nodes = cfg.node_count;
  record.windows = cfg.stream_windows;
  record.seeds = n_seeds;
  record.workers = cfg.workers;

  const auto t0 = std::chrono::steady_clock::now();
  // Both parallelism levels share the one thread budget: the sweep divides
  // HG_THREADS (or hardware cores) by the intra-run worker count.
  scenario::SweepRunner runner(scenario::SweepOptions{.threads = threads_from_env(),
                                                      .workers_per_job = cfg.workers});
  SeedSet set{runner.run_experiments(scenario::SweepRunner::seed_sweep(std::move(cfg), seeds))};
  record.wall_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const auto& e : set.runs) record.events += e->events_executed();
  JsonReport::instance().record(std::move(record));
  return set;
}

// ---------------------------------------------------------------------------
// Report builders pooled across replicas
// ---------------------------------------------------------------------------

// Per-node samples: pool all replicas into one distribution.
template <class Fn>
metrics::Samples pooled_samples(const SeedSet& set, Fn&& per_run) {
  metrics::Samples out;
  for (const auto& run : set.runs) {
    const metrics::Samples per_seed = per_run(*run);
    for (const double v : per_seed.values()) out.add(v);
  }
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

// Per-class stats: node-weighted mean of each class across replicas (NaN
// entries — e.g. "no jittered windows in this class this seed" — are skipped).
template <class Fn>
std::vector<scenario::ClassStat> merged_class_stats(const SeedSet& set, Fn&& per_run) {
  std::vector<scenario::ClassStat> merged;
  std::vector<double> weights;
  for (const auto& run : set.runs) {
    const auto stats = per_run(*run);
    if (merged.empty()) {
      merged.resize(stats.size());
      weights.assign(stats.size(), 0.0);
      for (std::size_t c = 0; c < stats.size(); ++c) {
        merged[c].class_name = stats[c].class_name;
        merged[c].value = 0.0;
      }
    }
    for (std::size_t c = 0; c < stats.size(); ++c) {
      merged[c].nodes += stats[c].nodes;
      if (std::isnan(stats[c].value)) continue;
      merged[c].value += stats[c].value * static_cast<double>(stats[c].nodes);
      weights[c] += static_cast<double>(stats[c].nodes);
    }
  }
  for (std::size_t c = 0; c < merged.size(); ++c) {
    merged[c].value = weights[c] > 0 ? merged[c].value / weights[c] : std::nan("");
  }
  return merged;
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
