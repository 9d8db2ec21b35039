// Worker-count invariance of the superstep-sharded engine, end to end: the
// same seed and partition count must produce byte-identical metrics no
// matter how many threads drive the run. This is the contract that lets
// HG_WORKERS vary freely across machines without bending any paper curve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/deployment.hpp"
#include "scenario/report.hpp"
#include "stream/fec_module.hpp"
#include "stream/packet.hpp"

namespace hg::scenario {
namespace {

ExperimentConfig parallel_cfg(std::size_t workers) {
  ExperimentConfig cfg;
  cfg.node_count = 96;
  cfg.stream_windows = 4;
  cfg.tail = sim::SimTime::sec(20.0);
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.seed = 77;
  cfg.workers = workers;
  // Explicit: auto-partitioning keeps runs this small on one block, which
  // would not exercise the cross-partition exchange at all.
  cfg.partitions = 4;
  return cfg;
}

// Full-precision textual digest of everything the figures are built from:
// per-class curve points, wire totals, per-node upload bytes, event count.
// Compared with string equality — "close" is a bug here.
std::string digest(Experiment& e) {
  std::string out;
  char buf[128];
  for (const ClassStat& stat : jitter_free_pct_by_class(e, /*lag_sec=*/2.0)) {
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", stat.class_name.c_str(), stat.value);
    out += buf;
  }
  std::int64_t uploaded = 0;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    uploaded += e.meter(i).total_sent_bytes();
  }
  std::snprintf(buf, sizeof buf, "delivered=%llu lost=%llu uploaded=%lld events=%llu\n",
                static_cast<unsigned long long>(e.fabric().datagrams_delivered()),
                static_cast<unsigned long long>(e.fabric().datagrams_lost()),
                static_cast<long long>(uploaded),
                static_cast<unsigned long long>(e.events_executed()));
  out += buf;
  return out;
}

std::string run_digest(std::size_t workers) {
  Experiment e(parallel_cfg(workers));
  e.run();
  return digest(e);
}

TEST(ParallelDeterminism, MetricsAreByteIdenticalAcrossWorkerCounts) {
  const std::string base = run_digest(1);
  EXPECT_NE(base.find("delivered="), std::string::npos);
  for (std::size_t workers : {2u, 8u, 16u}) {
    EXPECT_EQ(run_digest(workers), base) << "workers=" << workers;
  }
}

TEST(ParallelDeterminism, RepeatedRunsAreByteIdentical) {
  EXPECT_EQ(run_digest(2), run_digest(2));
}

TEST(ParallelDeterminism, MetricsInvariantAcrossPartitionCountsAndPlacement) {
  // The partition layout — count, single-node extremes, capability-clustered
  // placement — may only move work between shards, never change a result.
  auto digest_with = [](std::uint32_t partitions, Placement placement) {
    ExperimentConfig cfg = parallel_cfg(2);
    cfg.partitions = partitions;
    cfg.placement = placement;
    Experiment e(cfg);
    e.run();
    return digest(e);
  };
  const std::string base = digest_with(4, Placement::kContiguous);
  EXPECT_NE(base.find("delivered="), std::string::npos);
  EXPECT_EQ(digest_with(2, Placement::kContiguous), base) << "partitions=2";
  EXPECT_EQ(digest_with(5, Placement::kClustered), base) << "partitions=5 clustered";
  EXPECT_EQ(digest_with(4, Placement::kClustered), base) << "clustered placement";
  // 97 partitions for 96 receivers + source: every partition holds exactly
  // one node, every datagram crosses the exchange.
  EXPECT_EQ(digest_with(97, Placement::kContiguous), base) << "single-node partitions";
}

TEST(ParallelDeterminism, DegeneratePartitioningMatchesSequentialEngine) {
  // More partitions than nodes clamps to a single partition, which runs the
  // sequential loop — the same loop workers=0 runs. A clamped run with two
  // requested workers must be *byte-identical* to it, not merely
  // deterministic.
  ExperimentConfig cfg = parallel_cfg(2);
  cfg.partitions = 500;  // > 97 nodes -> clamped to 1
  Experiment par(cfg);
  par.run();

  ExperimentConfig seq_cfg = parallel_cfg(0);
  seq_cfg.partitions = 0;
  Experiment seq(seq_cfg);
  seq.run();
  EXPECT_EQ(digest(par), digest(seq));
}

TEST(ParallelDeterminism, EpochWideningPreservesChurnResults) {
  // Satellite guard for the widening rule: a churn window keeps control
  // tasks (crashes, detection notices) and retransmit timers in flight; the
  // widened run must execute every one of them at the same instant as the
  // un-widened run — digest equality includes the event count.
  auto digest_widen = [](bool widen) {
    ExperimentConfig cfg = parallel_cfg(2);
    cfg.epoch_widening = widen;
    cfg.churn.push_back(ChurnEvent{sim::SimTime::sec(6.0), 0.3});
    Experiment e(cfg);
    e.run();
    std::string out = digest(e);
    out += "epochs_run=" + std::to_string(e.deployment().engine().epochs_run());
    return out;
  };
  const std::string widened = digest_widen(true);
  const std::string literal = digest_widen(false);
  // Same simulation, different barrier schedule: everything but the
  // epochs_run trailer must match.
  EXPECT_EQ(widened.substr(0, widened.find("epochs_run=")),
            literal.substr(0, literal.find("epochs_run=")));
  const auto epochs = [](const std::string& s) {
    return std::stoull(s.substr(s.find("epochs_run=") + 11));
  };
  EXPECT_LT(epochs(widened), epochs(literal));
}

// Real payloads on the sharded engine. A serve's body is the sender's
// stored chunk, and a serve crossing a partition boundary gets a copy of its
// body in the importing partition's pool, so every partition's receivers
// hold their own copies of the source's packets. Every decoded window must
// still reach the sink byte-exact, and decode times, traffic meters and FEC
// counters must not depend on the worker count.
std::string real_payload_digest(std::size_t workers) {
  ExperimentConfig cfg = parallel_cfg(workers);
  cfg.stream.real_payloads = true;
  cfg.loss_rate = 0.02;  // enough loss that some windows decode through parity
  auto d = Deployment::Builder{}
               .seed(cfg.seed)
               .network(cfg.network_plan())
               .population(cfg.population_plan())
               .stream(cfg.stream_plan())
               .parallel(cfg.parallel_plan())
               .build();
  EXPECT_TRUE(d->parallel());
  // Sinks run on the receivers' partition workers: each writes only its own
  // receiver's slots.
  std::vector<std::uint64_t> sunk(d->receivers(), 0);
  std::vector<std::uint64_t> mismatched(d->receivers(), 0);
  for (std::size_t i = 0; i < d->receivers(); ++i) {
    d->node(i).module<stream::FecModule>().set_window_sink(
        [i, &sunk, &mismatched, &cfg](std::uint32_t w,
                                      std::span<const std::span<const std::uint8_t>> data) {
          ++sunk[i];
          for (std::uint16_t k = 0; k < data.size(); ++k) {
            const auto expected = stream::synth_payload_bytes(w, k, cfg.stream.packet_bytes);
            if (!std::equal(data[k].begin(), data[k].end(), expected.begin(), expected.end())) {
              ++mismatched[i];
            }
          }
        });
  }
  d->start();
  d->run_until(cfg.run_end());

  std::string out;
  char buf[128];
  std::uint64_t decoded = 0, repaired = 0;
  for (std::size_t i = 0; i < d->receivers(); ++i) {
    const auto& fec = d->node(i).module<stream::FecModule>().stats();
    EXPECT_EQ(mismatched[i], 0u) << "receiver " << i;
    EXPECT_EQ(sunk[i], fec.windows_decoded) << "receiver " << i;
    EXPECT_EQ(fec.decode_failures, 0u) << "receiver " << i;
    decoded += fec.windows_decoded;
    repaired += fec.erasures_repaired;
    for (std::uint32_t w = 0; w < cfg.stream_windows; ++w) {
      std::snprintf(buf, sizeof buf, "%lld ",
                    static_cast<long long>(d->player(i).window(w).decode_time.as_us()));
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "sent=%lld recv=%lld decoded=%llu repaired=%llu\n",
                  static_cast<long long>(d->meter(i).total_sent_bytes()),
                  static_cast<long long>(d->meter(i).total_received_bytes()),
                  static_cast<unsigned long long>(fec.windows_decoded),
                  static_cast<unsigned long long>(fec.erasures_repaired));
    out += buf;
  }
  // Nearly every (receiver, window) pair decodes, some through parity, and
  // the exchange really carried bodies.
  EXPECT_GT(decoded, d->receivers() * cfg.stream_windows * 9 / 10);
  EXPECT_GT(repaired, 0u);
  const auto xpart = d->fabric().superstep_counters();
  EXPECT_GT(xpart.xpart_exchange_bytes, xpart.xpart_datagrams * cfg.stream.packet_bytes / 4);
  std::snprintf(buf, sizeof buf, "delivered=%llu xpart_bytes=%llu",
                static_cast<unsigned long long>(d->fabric().datagrams_delivered()),
                static_cast<unsigned long long>(xpart.xpart_exchange_bytes));
  out += buf;
  return out;
}

TEST(ParallelDeterminism, RealPayloadsDecodeByteExactAcrossWorkerCounts) {
  const std::string one = real_payload_digest(1);
  EXPECT_EQ(real_payload_digest(4), one);
}

TEST(ParallelDeterminism, ChurnAndDetectionStayDeterministic) {
  auto with_churn = [](std::size_t workers) {
    ExperimentConfig cfg = parallel_cfg(workers);
    cfg.churn.push_back(ChurnEvent{sim::SimTime::sec(6.0), 0.3});
    Experiment e(cfg);
    e.run();
    std::string out = digest(e);
    std::size_t crashed = 0;
    for (std::size_t i = 0; i < e.receivers(); ++i) {
      if (e.info(i).crashed) ++crashed;
    }
    out += "crashed=" + std::to_string(crashed);
    return out;
  };
  const std::string base = with_churn(1);
  EXPECT_NE(base.find("crashed=28"), std::string::npos);  // 0.3 * 96 receivers
  for (std::size_t workers : {3u, 8u}) {
    EXPECT_EQ(with_churn(workers), base) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace hg::scenario
