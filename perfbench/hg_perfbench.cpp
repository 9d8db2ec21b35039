// Benchmark child: one workload, one simulation, one JSON record.
//
// Builds the workload through the public plan API (ExperimentConfig ->
// Deployment::Builder, the same way Experiment::run does), several times so
// set-up is timed apart from the run and over more than one build; runs the
// last build to run_end(); checks the outputs; and
// prints one JSON object on stdout. Every layer number is read from outside
// the library: timed spans around public calls, and counters from each
// layer's public stats() accessors.
//
// Usage: hg_perfbench --workload <name> --seed <n> [--trace <path>]
//        hg_perfbench --setup <name> --seed <n>
//        hg_perfbench --reference <name>
//
// --setup stops after set-up and prints {"setup_s": ...}. --reference times
// a fixed host-speed reference loop instead, on as many threads as the
// workload's engine runs, and prints {"reference_s": ...}.
//
// With --trace the run is cut into per-window slices by control tasks that
// snapshot the layer counters, the standalone FEC kernels are timed, and all
// spans plus snapshots are written to <path> at exit. Tracing must not
// change any simulated result: the record's digest covers every simulated
// outcome and deterministic counter, so a traced and an untraced run of one
// seed must print the same digest.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aggregation/aggregation_module.hpp"
#include "fec/gf256.hpp"
#include "fec/window_codec.hpp"
#include "gossip/gossip_module.hpp"
#include "metrics/percentile.hpp"
#include "net/buffer.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scale_preset.hpp"
#include "stream/fec_module.hpp"
#include "stream/lag_analyzer.hpp"

namespace {

using namespace hg;
using Clock = std::chrono::steady_clock;

// Lag beyond which a receiver counts as never jitter-free (the paper's
// largest plotted lag), and the lag at which jitter is judged (the paper's
// headline operating point).
constexpr double kLagCapSec = 60.0;
constexpr double kJitterLagSec = 10.0;
// Tail slices of a traced run: the post-stream drain is cut into pieces of
// this simulated length so its counters are snapshotted over time too.
constexpr double kTailSliceSec = 5.0;
// Set-up is timed over several builds of the same deployment, all but the
// last destroyed again: at least kMinSetups, then more until kSetupBudgetSec
// of set-up time is spent or kMaxSetups are done. One build of a virtual
// workload takes ~10 ms, well inside a shared VM's scheduling noise.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudgetSec = 0.3;

// --- workloads ---------------------------------------------------------------

// Large-N path: HEAP with virtual payloads, lean players, capped
// aggregation, sequential engine.
scenario::ExperimentConfig scale_heap(std::uint64_t seed) {
  return scenario::ScalePreset::config(2000, core::Mode::kHeap, seed);
}

// Standard gossip on the sharded engine, 20% of receivers crashed a third of
// the way into the stream, 10 s failure detection.
scenario::ExperimentConfig churn_sharded(std::uint64_t seed) {
  scenario::ExperimentConfig cfg = scenario::ScalePreset::config(3000, core::Mode::kStandard, seed);
  const double stream_sec =
      cfg.stream.window_duration_sec() * static_cast<double>(cfg.stream_windows);
  cfg.churn = {{sim::SimTime::sec(2.0 + stream_sec / 3.0), 0.2}};
  cfg.detection.mean = sim::SimTime::sec(10.0);
  cfg.workers = 2;
  cfg.partitions = 16;
  return cfg;
}

// The paper's own protocol configuration with real payload bytes, so every
// receiver mounts the online FEC decoder.
scenario::ExperimentConfig paper_fec(std::uint64_t seed) {
  scenario::ExperimentConfig cfg;
  cfg.node_count = 250;
  cfg.stream_windows = 16;
  cfg.stream.real_payloads = true;
  cfg.seed = seed;
  return cfg;
}

struct Workload {
  const char* name;
  scenario::ExperimentConfig (*config)(std::uint64_t seed);
};

constexpr Workload kWorkloads[] = {
    {"scale-heap", scale_heap},
    {"churn-sharded", churn_sharded},
    {"paper-fec", paper_fec},
};

// --- spans -------------------------------------------------------------------

// Host-time spans kept in memory; the traced run writes them out at exit.
class Spans {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  std::size_t begin(std::string name, std::size_t parent) {
    spans_.push_back({std::move(name), parent, elapsed_ns(), -1});
    return spans_.size() - 1;
  }
  void end(std::size_t id) { spans_[id].end_ns = elapsed_ns(); }
  [[nodiscard]] double seconds(std::size_t id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) / 1e9;
  }

  void write_json(std::FILE* f) const {
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %s, ", i == 0 ? "" : ",",
                   i, s.name.c_str(), s.parent == kRoot ? "null" : std::to_string(s.parent).c_str());
      std::fprintf(f, "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}", s.start_ns, s.end_ns);
    }
    std::fprintf(f, "\n]");
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// --- metric records ----------------------------------------------------------

// Named numbers in insertion order, printed as one JSON object.
struct Metrics {
  std::vector<std::pair<std::string, double>> items;

  void add(std::string name, double value) { items.emplace_back(std::move(name), value); }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& [k, v] : items) {
      if (k == name) return v;
    }
    std::fprintf(stderr, "hg_perfbench: no metric %s\n", name.c_str());
    std::abort();
  }
  void write_json(std::FILE* f) const {
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ", items[i].first.c_str(),
                   std::isfinite(items[i].second) ? items[i].second : -1.0);
    }
    std::fprintf(f, "}");
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Upper median; every caller passes at least one value.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Deterministic per-layer counters, summed over the source and every
// receiver (crashed ones included: their counters froze at the crash).
// `tracer_events` are control events a traced run added, not simulated work.
Metrics collect_counters(scenario::Deployment& d, std::uint64_t tracer_events = 0) {
  std::uint64_t dispatched = 0, unknown_tag = 0, source_unknown_tag = 0;
  std::uint64_t proposes = 0, ids_proposed = 0, requests = 0, serves = 0, delivered = 0;
  std::uint64_t retx_retries = 0, windows_cancelled = 0, timers_cancelled = 0, malformed = 0;
  std::uint64_t gossip_state_bytes = 0;
  std::uint64_t agg_sent = 0, agg_merged = 0, agg_stale = 0;
  std::uint64_t fec_decoded = 0, fec_repaired = 0, fec_failures = 0, fec_malformed = 0;
  std::uint64_t views_materialized = 0;
  std::uint64_t packets = 0, duplicates = 0, deferred = 0, decodable = 0;

  auto add_node = [&](core::NodeRuntime& node) {
    dispatched += node.stats().datagrams_dispatched;
    unknown_tag += node.stats().unknown_tag_datagrams;
    if (node.view().materialized()) ++views_materialized;
    if (const auto* gm = node.find_module<gossip::GossipModule>()) {
      const auto& s = gm->engine().stats();
      proposes += s.proposes_sent;
      ids_proposed += s.ids_proposed;
      requests += s.requests_sent;
      serves += s.serves_sent;
      delivered += s.events_delivered;
      windows_cancelled += s.windows_cancelled;
      timers_cancelled += s.timers_cancelled_by_window;
      malformed += s.malformed;
      retx_retries += gm->engine().retransmit_stats().retries_fired;
      gossip_state_bytes += gm->engine().state_bytes();
    }
    if (const auto* am = node.find_module<aggregation::AggregationModule>()) {
      const auto& s = am->aggregator().stats();
      agg_sent += s.gossips_sent;
      agg_merged += s.records_merged;
      agg_stale += s.records_stale_dropped;
    }
    if (const auto* fm = node.find_module<stream::FecModule>()) {
      const auto& s = fm->stats();
      fec_decoded += s.windows_decoded;
      fec_repaired += s.erasures_repaired;
      fec_failures += s.decode_failures;
      fec_malformed += s.malformed_packets;
    }
  };
  add_node(d.source_node());
  // The source runs the standard (non-adaptive) stack, which mounts no
  // aggregation module; HEAP receivers still gossip capability records to
  // it. Those land as unknown tags and are counted apart from the
  // receivers', which must stay zero.
  std::swap(unknown_tag, source_unknown_tag);
  for (std::size_t i = 0; i < d.receivers(); ++i) {
    add_node(d.node(i));
    const stream::Player& p = d.player(i);
    packets += p.packets_received();
    duplicates += p.duplicates();
    deferred += p.requests_deferred();
    for (std::uint32_t w = 0; w < p.windows_total(); ++w) {
      if (p.window(w).decode_time != sim::SimTime::max()) ++decodable;
    }
  }
  const auto xs = d.fabric().superstep_counters();
  const double sends =
      static_cast<double>(xs.local_datagrams + xs.xpart_datagrams + xs.filtered_dead);
  const auto receivers = static_cast<double>(d.receivers());

  Metrics m;
  m.add("sim.events", static_cast<double>(d.events_executed() - tracer_events));
  m.add("net.datagrams_delivered", static_cast<double>(d.fabric().datagrams_delivered()));
  m.add("net.datagrams_lost", static_cast<double>(d.fabric().datagrams_lost()));
  m.add("net.filtered_dead", static_cast<double>(xs.filtered_dead));
  m.add("net.xpart_datagrams", static_cast<double>(xs.xpart_datagrams));
  m.add("net.xpart_fraction", ratio(static_cast<double>(xs.xpart_datagrams), sends));
  m.add("net.xpart_exchange_mb", static_cast<double>(xs.xpart_exchange_bytes) / 1e6);
  m.add("core.datagrams_dispatched", static_cast<double>(dispatched));
  m.add("core.unknown_tag_datagrams", static_cast<double>(unknown_tag));
  m.add("core.source_unknown_tag_datagrams", static_cast<double>(source_unknown_tag));
  m.add("gossip.proposes_sent", static_cast<double>(proposes));
  m.add("gossip.ids_proposed", static_cast<double>(ids_proposed));
  m.add("gossip.requests_sent", static_cast<double>(requests));
  m.add("gossip.serves_sent", static_cast<double>(serves));
  m.add("gossip.useful_serve_pct",
        100.0 * ratio(static_cast<double>(delivered), static_cast<double>(serves)));
  m.add("gossip.retx_retries", static_cast<double>(retx_retries));
  m.add("gossip.windows_cancelled", static_cast<double>(windows_cancelled));
  m.add("gossip.timers_cancelled", static_cast<double>(timers_cancelled));
  m.add("gossip.malformed", static_cast<double>(malformed));
  m.add("gossip.state_bytes_per_node", ratio(static_cast<double>(gossip_state_bytes), receivers));
  m.add("aggregation.gossips_sent", static_cast<double>(agg_sent));
  m.add("aggregation.records_merged", static_cast<double>(agg_merged));
  m.add("aggregation.records_stale_dropped", static_cast<double>(agg_stale));
  m.add("membership.views_materialized", static_cast<double>(views_materialized));
  m.add("fec.windows_decoded", static_cast<double>(fec_decoded));
  m.add("fec.erasures_repaired", static_cast<double>(fec_repaired));
  m.add("fec.decode_failures", static_cast<double>(fec_failures));
  m.add("fec.malformed_packets", static_cast<double>(fec_malformed));
  m.add("stream.packets_received", static_cast<double>(packets));
  m.add("stream.duplicates", static_cast<double>(duplicates));
  m.add("stream.requests_deferred", static_cast<double>(deferred));
  m.add("stream.windows_decodable", static_cast<double>(decodable));
  return m;
}

// The simulated outcomes a user of the system sees, over the receivers that
// survived the run. An operation is one (surviving receiver, window) decode;
// it fails if the window never becomes decodable.
struct Outcomes {
  Metrics sim;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcomes analyze(const scenario::Deployment& d, const stream::LagAnalyzer& analyzer) {
  metrics::Samples lag;
  std::size_t survivors = 0, jitter_free = 0;
  std::int64_t uploaded = 0;
  Outcomes out;
  for (std::size_t i = 0; i < d.receivers(); ++i) {
    uploaded += d.meter(i).total_sent_bytes();
    if (d.info(i).crashed) continue;
    ++survivors;
    const stream::Player& p = d.player(i);
    lag.add(std::min(analyzer.lag_to_jitter_at_most(p, 0.0).value_or(kLagCapSec), kLagCapSec));
    if (analyzer.jitter_fraction(p, kJitterLagSec) == 0.0) ++jitter_free;
    for (std::uint32_t w = 0; w < p.windows_total(); ++w) {
      ++out.attempted;
      if (p.window(w).decode_time == sim::SimTime::max()) ++out.failed;
    }
  }
  out.sim.add("sim_lag_p50_s", lag.empty() ? 0.0 : lag.percentile(50));
  out.sim.add("sim_lag_p99_s", lag.empty() ? 0.0 : lag.percentile(99));
  out.sim.add("sim_jitter_free_pct",
              100.0 * ratio(static_cast<double>(jitter_free), static_cast<double>(survivors)));
  out.sim.add("sim_upload_kb_per_node",
              ratio(static_cast<double>(uploaded) / 1e3, static_cast<double>(d.receivers())));
  out.sim.add("sim_windows_undecoded_pct",
              100.0 * ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  out.sim.add("sim_receivers_survived", static_cast<double>(survivors));
  return out;
}

// FNV-1a over the exact text of every simulated outcome and deterministic
// counter: equal digests mean bit-identical results.
std::string digest(const std::vector<const Metrics*>& parts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[128];
  for (const Metrics* m : parts) {
    for (const auto& [k, v] : m->items) {
      const int n = std::snprintf(buf, sizeof(buf), "%s=%.17g\n", k.c_str(), v);
      for (int i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(buf[i]);
        h *= 0x100000001b3ull;
      }
    }
  }
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

// --- standalone FEC timings (traced runs) -----------------------------------

template <class Fn>
double ns_per_byte(std::size_t iters, std::size_t bytes_per_iter, Fn&& fn) {
  volatile std::uint8_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) sink = sink ^ fn();
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(iters * bytes_per_iter);
}

// The paper geometry (101 data + 9 parity, 1316 B packets): the codec every
// paper-fec receiver builds at set-up, and one window encoded and decoded
// with nine erasures.
void time_fec(Spans& spans, std::size_t parent, Metrics& host) {
  const fec::WindowCodecConfig cfg{.data_per_window = 101, .parity_per_window = 9,
                                   .packet_bytes = 1316};
  std::size_t span = spans.begin("fec.codec_build", parent);
  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const fec::WindowCodec probe(cfg);
    build_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (probe.window_packets() != 110) std::abort();
  }
  spans.end(span);
  host.add("fec.codec_build_ms", median(build_ms));

  const fec::WindowCodec codec(cfg);
  std::vector<std::vector<std::uint8_t>> data(cfg.data_per_window,
                                              std::vector<std::uint8_t>(cfg.packet_bytes));
  for (std::size_t p = 0; p < data.size(); ++p) {
    for (std::size_t i = 0; i < cfg.packet_bytes; ++i) {
      data[p][i] = static_cast<std::uint8_t>(p * 131 + i * 7 + 3);
    }
  }
  const std::size_t window_bytes = cfg.data_per_window * cfg.packet_bytes;
  span = spans.begin("fec.encode", parent);
  host.add("fec.encode_ns_per_byte",
           ns_per_byte(20, window_bytes, [&] { return codec.encode_window(data)[0][0]; }));
  spans.end(span);

  const auto parity = codec.encode_window(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> received(codec.window_packets());
  for (std::size_t i = 0; i < cfg.data_per_window; ++i) received[i] = data[i];
  for (std::size_t i = 0; i < cfg.parity_per_window; ++i) {
    received[cfg.data_per_window + i] = parity[i];
    received[i * 11].reset();
  }
  span = spans.begin("fec.decode", parent);
  host.add("fec.decode_ns_per_byte", ns_per_byte(20, window_bytes, [&] {
             const auto decoded = codec.decode_window(received);
             if (!decoded || (*decoded)[0] != data[0]) std::abort();
             return (*decoded)[0][0];
           }));
  spans.end(span);
}

// --- the traced run ----------------------------------------------------------

// Drives the deployment to run_end() in one run_until() call, like the
// untraced run, with a control task at every slice boundary (each window's
// end, then kTailSliceSec steps through the tail). Each task closes its
// slice span, snapshots every counter, and opens the next slice, under
// phase spans startup / stream / tail. Control tasks see a quiescent state
// on either engine and change no simulated result. Cutting the run into
// several run_until() calls would: on the sharded engine, cross-partition
// datagrams sent by events at exactly the bound are dropped by the next call.
// Returns how many control tasks ran as simulator events (the sequential and
// single-partition engines run them as events, the sharded one at barriers).
std::uint64_t run_traced(scenario::Deployment& d, const scenario::ExperimentConfig& cfg,
                         Spans& spans, std::size_t run_span, Metrics& host, std::FILE* snapshots) {
  static constexpr const char* kPhases[] = {"startup", "stream", "tail"};
  struct Boundary {
    sim::SimTime at;
    std::size_t phase;
  };
  std::vector<Boundary> bounds{{cfg.stream_start, 0}};
  const double window_sec = cfg.stream.window_duration_sec();
  for (std::uint32_t w = 1; w < cfg.stream_windows; ++w) {
    bounds.push_back({cfg.stream_start + sim::SimTime::sec(window_sec * static_cast<double>(w)), 1});
  }
  bounds.push_back({cfg.stream_end(), 1});
  for (sim::SimTime t = cfg.stream_end() + sim::SimTime::sec(kTailSliceSec); t < cfg.run_end();
       t = t + sim::SimTime::sec(kTailSliceSec)) {
    bounds.push_back({t, 2});
  }
  bounds.push_back({cfg.run_end(), 2});

  std::size_t phase_span = spans.begin(kPhases[0], run_span);
  std::size_t slice_span = spans.begin("slice", phase_span);
  std::uint64_t phase_events = d.events_executed();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    d.schedule_control(bounds[i].at, [&, i] {
      spans.end(slice_span);
      std::fprintf(snapshots, "%s\n  {\"slice\": %zu, \"span\": %zu, \"sim_s\": %.6f, ",
                   i == 0 ? "" : ",", i, slice_span, bounds[i].at.as_sec());
      std::fprintf(snapshots, "\"host_s\": %.9f, \"counters\": ", spans.seconds(slice_span));
      collect_counters(d).write_json(snapshots);
      std::fprintf(snapshots, "}");
      const bool last = i + 1 == bounds.size();
      if (last || bounds[i + 1].phase != bounds[i].phase) {
        spans.end(phase_span);
        const double phase_s = spans.seconds(phase_span);
        const auto events = static_cast<double>(d.events_executed() - phase_events);
        const std::string name = kPhases[bounds[i].phase];
        host.add("sim.phase_host_s." + name, phase_s);
        host.add("sim.host_ns_per_event." + name, ratio(phase_s * 1e9, events));
        if (last) return;
        phase_span = spans.begin(kPhases[bounds[i + 1].phase], run_span);
        phase_events = d.events_executed();
      }
      slice_span = spans.begin("slice", phase_span);
    });
  }
  d.run_until(cfg.run_end());
  const bool barrier_tasks = d.parallel() && d.engine().partitions() > 1;
  return barrier_tasks ? 0 : bounds.size();
}

// --- host-speed reference ----------------------------------------------------

// A fixed discrete-event loop that uses nothing from the library: a binary
// heap of timestamped events over 32 MB of per-node state, each event
// touching a few words of one node and scheduling one more. Its host time
// tracks how fast this machine runs simulator-shaped work at the moment, so
// a run can tell host drift apart from a change in the code.
class ReferenceLoop {
 public:
  ReferenceLoop() : state_(std::size_t{kNodes} * kWords, 1) {
    heap_.reserve(kQueued);
    for (std::uint32_t i = 0; i < kQueued; ++i) {
      heap_.push_back({next() % 1'000'000, static_cast<std::uint32_t>(next() % kNodes)});
    }
    std::make_heap(heap_.begin(), heap_.end());
  }

  void run() {
    for (int i = 0; i < kEvents; ++i) {
      std::pop_heap(heap_.begin(), heap_.end());
      const Event e = heap_.back();
      heap_.pop_back();
      std::uint64_t* s = &state_[std::size_t{e.node} * kWords];
      std::uint64_t h = e.at;
      for (int k = 0; k < 4; ++k) {
        std::uint64_t& w = s[(h >> (k * 10)) % kWords];
        w += h;
        h = (h ^ w) * 0x100000001b3ull;
      }
      heap_.push_back({e.at + 1 + next() % 50'000, static_cast<std::uint32_t>(h % kNodes)});
      std::push_heap(heap_.begin(), heap_.end());
    }
    if (heap_.size() != kQueued) std::abort();
  }

 private:
  static constexpr std::uint32_t kNodes = 4096;
  static constexpr std::uint32_t kWords = 1024;
  static constexpr std::uint32_t kQueued = 1u << 17;
  static constexpr int kEvents = 3'000'000;
  struct Event {
    std::uint64_t at;
    std::uint32_t node;
    bool operator<(const Event& o) const { return at > o.at; }
  };
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::vector<std::uint64_t> state_;
  std::vector<Event> heap_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
};

// One loop per thread the workload's engine runs, all at once: a sharded
// run waits at every barrier for its slower worker, so the reference time
// is that of the last loop to finish.
double host_reference_s(std::size_t threads) {
  std::vector<ReferenceLoop> loops(threads);
  const auto t0 = Clock::now();
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back([&loops, t] { loops[t].run(); });
  loops[0].run();
  for (std::thread& h : helpers) h.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hg_perfbench: %s\nusage: hg_perfbench --workload <name> --seed <n> "
               "[--trace <path>]\n       hg_perfbench --setup <name> --seed <n>\n"
               "       hg_perfbench --reference <name>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  bool reference = false;
  bool setup_only = false;
  std::optional<std::uint64_t> seed;
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload" || flag == "--setup" || flag == "--reference") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, argv[i + 1]) == 0) workload = &w;
      }
      if (workload == nullptr) usage("unknown workload");
      reference = flag == "--reference";
      setup_only = flag == "--setup";
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--trace") {
      trace_path = argv[i + 1];
    } else {
      usage("unknown argument");
    }
  }
  if (argc % 2 == 0) usage("every flag takes one value");
  if (reference) {
    const std::size_t threads = std::max<std::size_t>(1, workload->config(0).workers);
    std::printf("{\"reference_s\": %.9f}\n", host_reference_s(threads));
    return 0;
  }
  if (workload == nullptr || !seed) usage("--workload (or --setup) and --seed are required");
  const bool traced = trace_path != nullptr;

  const scenario::ExperimentConfig cfg = workload->config(*seed);
  Spans spans;
  Metrics host;
  const std::size_t root = spans.begin("bench", Spans::kRoot);
  if (traced) time_fec(spans, root, host);

  // Every build is the same pure function of the config; the last one runs.
  std::unique_ptr<scenario::Deployment> d;
  std::vector<double> build_s, start_s, setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetSec && setup_s.size() < kMaxSetups)) {
    d.reset();
    const std::size_t build = spans.begin("scenario.build", root);
    d = scenario::Deployment::Builder{}
            .seed(cfg.seed)
            .network(cfg.network_plan())
            .population(cfg.population_plan())
            .stream(cfg.stream_plan())
            .churn(cfg.churn_plan())
            .parallel(cfg.parallel_plan())
            .node_factory(cfg.node_factory)
            .build();
    spans.end(build);
    const std::size_t start = spans.begin("scenario.start", root);
    d->start();
    spans.end(start);
    build_s.push_back(spans.seconds(build));
    start_s.push_back(spans.seconds(start));
    setup_s.push_back(build_s.back() + start_s.back());
    setup_total_s += setup_s.back();
  }
  if (setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", median(setup_s));
    return 0;
  }
  const stream::LagAnalyzer analyzer(d->source());

  std::string snapshots_json;
  std::uint64_t tracer_events = 0;
  const std::size_t run = spans.begin("run", root);
  if (traced) {
    // Snapshots go to a memory stream so the trace file is written in one
    // piece at exit.
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    tracer_events = run_traced(*d, cfg, spans, run, host, mem);
    std::fclose(mem);
    snapshots_json.assign(buf, len);
    std::free(buf);
  } else {
    d->run_until(cfg.run_end());
  }
  spans.end(run);

  const std::size_t analysis = spans.begin("stream.analysis", root);
  const Outcomes outcomes = analyze(*d, analyzer);
  spans.end(analysis);
  const Metrics counters = collect_counters(*d, tracer_events);
  spans.end(root);

  // Host-side numbers: timings, and counters that depend on thread
  // scheduling (main-thread pool) or on how the run is sliced (epochs).
  const double run_s = spans.seconds(run);
  const double events = counters.get("sim.events");
  const auto receivers = static_cast<double>(d->receivers());
  const double sim_s = cfg.run_end().as_sec();
  const auto& pool = net::BufferPool::local().stats();
  host.add("setup_s", median(setup_s));
  host.add("setup_builds", static_cast<double>(setup_s.size()));
  host.add("scenario.build_s", median(build_s));
  host.add("scenario.start_s", median(start_s));
  host.add("run_s", run_s);
  host.add("stream.analysis_s", spans.seconds(analysis));
  host.add("node_sim_s_per_s", ratio(receivers * sim_s, run_s));
  host.add("sim.events_per_node_s", ratio(events, receivers * sim_s));
  host.add("sim.host_ns_per_event", ratio(run_s * 1e9, events));
  host.add("sim.epochs_run", d->parallel() ? static_cast<double>(d->engine().epochs_run()) : 0.0);
  host.add("sim.epochs_skipped",
           d->parallel() ? static_cast<double>(d->engine().epochs_skipped()) : 0.0);
  host.add("net.pool_hit_pct",
           100.0 * ratio(static_cast<double>(pool.pool_hits),
                         static_cast<double>(pool.pool_hits + pool.chunk_allocs)));
  host.add("peak_rss_mb", peak_rss_mb());

  // Output checks: wire input the stack rejected, tags nobody claimed, RS
  // decodes that failed, and (real payloads) the "decoded iff >= k distinct
  // packets arrived" audit — FecModule must decode exactly the windows the
  // players count as decodable. Virtual runs mount no decoder at all.
  std::vector<std::pair<std::string, bool>> checks;
  checks.emplace_back("gossip.malformed==0", counters.get("gossip.malformed") == 0);
  checks.emplace_back("core.unknown_tag_datagrams==0",
                      counters.get("core.unknown_tag_datagrams") == 0);
  checks.emplace_back("fec.decode_failures==0", counters.get("fec.decode_failures") == 0);
  checks.emplace_back("fec.malformed_packets==0", counters.get("fec.malformed_packets") == 0);
  if (cfg.stream.real_payloads) {
    checks.emplace_back("fec.windows_decoded==stream.windows_decodable",
                        counters.get("fec.windows_decoded") ==
                                counters.get("stream.windows_decodable") &&
                            counters.get("fec.windows_decoded") > 0);
  } else {
    checks.emplace_back("fec.windows_decoded==0", counters.get("fec.windows_decoded") == 0);
  }
  checks.emplace_back("operations>0", outcomes.attempted > 0);

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, ", workload->name,
              *seed, traced ? "true" : "false");
  std::printf("\"receivers\": %zu, \"sim_s\": %.6f, ", d->receivers(), sim_s);
  std::printf("\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd\": \"%s\", ",
              HG_PERFBENCH_COMPILER, HG_PERFBENCH_BUILD_TYPE, fec::GF256::simd_level_name());
  std::printf("\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ", outcomes.attempted,
              outcomes.failed);
  std::printf("\"digest\": \"%s\", \"sim\": ", digest({&outcomes.sim, &counters}).c_str());
  outcomes.sim.write_json(stdout);
  std::printf(", \"counters\": ");
  counters.write_json(stdout);
  std::printf(", \"host\": ");
  host.write_json(stdout);
  std::printf(", \"checks\": {");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", checks[i].first.c_str(),
                checks[i].second ? "true" : "false");
  }
  std::printf("}}\n");
  std::fflush(stdout);

  if (traced) {
    std::FILE* f = std::fopen(trace_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "hg_perfbench: cannot write %s\n", trace_path);
      return 1;
    }
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"spans\": ", workload->name,
                 *seed);
    spans.write_json(f);
    std::fprintf(f, ",\n\"snapshots\": [%s\n]}\n", snapshots_json.c_str());
    std::fclose(f);
  }
  return 0;
}
