// End-to-end experiments at reduced scale: these assert the *shapes* the
// paper reports, using the same Experiment machinery the bench binaries use.
#include <gtest/gtest.h>

#include "core/heap.hpp"

namespace hg::scenario {
namespace {

ExperimentConfig small_cfg(core::Mode mode, BandwidthDistribution dist,
                           std::size_t nodes = 120, std::uint32_t windows = 8) {
  ExperimentConfig cfg;
  cfg.node_count = nodes;
  cfg.stream_windows = windows;
  cfg.mode = mode;
  cfg.distribution = std::move(dist);
  cfg.tail = sim::SimTime::sec(40.0);
  cfg.seed = 99;
  return cfg;
}

TEST(Experiment, UnconstrainedGossipDeliversFastToAll) {
  // Fig. 1's shape: without bandwidth caps, fanout-7 gossip delivers ~99%
  // of the stream to everyone within seconds.
  auto cfg = small_cfg(core::Mode::kStandard, BandwidthDistribution::unconstrained());
  Experiment exp(cfg);
  exp.run();

  const auto lags = stream_fraction_lags(exp, 0.99);
  ASSERT_EQ(lags.count(), exp.receivers());  // everyone got there
  EXPECT_LT(lags.percentile(50), 3.0);
  EXPECT_LT(lags.percentile(90), 8.0);
}

TEST(Experiment, HeapBeatsStandardOnSkewedDistribution) {
  // The paper's headline (Figs. 3/5/6a): on ms-691 HEAP delivers a stream
  // standard gossip cannot.
  // Congestion at poor nodes compounds over time; give it a 16-window
  // (~31 s) stream to build, as in the paper's multi-minute runs.
  auto std_cfg = small_cfg(core::Mode::kStandard, BandwidthDistribution::ms691(),
                           /*nodes=*/150, /*windows=*/16);
  Experiment std_exp(std_cfg);
  std_exp.run();

  auto heap_cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ms691(),
                            /*nodes=*/150, /*windows=*/16);
  Experiment heap_exp(heap_cfg);
  heap_exp.run();

  const auto std_jitter = jitter_percent_at_lag(std_exp, 10.0);
  const auto heap_jitter = jitter_percent_at_lag(heap_exp, 10.0);
  // HEAP: nearly jitter-free at 10 s; standard gossip: substantially worse.
  EXPECT_LT(heap_jitter.mean(), 10.0);
  EXPECT_GT(std_jitter.mean(), 20.0);
  EXPECT_LT(heap_jitter.mean(), std_jitter.mean() / 2.0);
}

TEST(Experiment, HeapEqualizesUploadUsage) {
  // Fig. 4b's shape: standard gossip under-uses rich nodes and saturates
  // poor ones; HEAP pulls all classes to a similar usage level.
  auto std_cfg = small_cfg(core::Mode::kStandard, BandwidthDistribution::ms691(),
                           /*nodes=*/150, /*windows=*/16);
  Experiment std_exp(std_cfg);
  std_exp.run();
  auto heap_cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ms691(),
                            /*nodes=*/150, /*windows=*/16);
  Experiment heap_exp(heap_cfg);
  heap_exp.run();

  const auto std_usage = usage_by_class(std_exp);    // [3Mbps, 1Mbps, 512kbps]
  const auto heap_usage = usage_by_class(heap_exp);
  // Standard: poor class saturated, rich class far below.
  EXPECT_GT(std_usage[2].value, 0.75);
  EXPECT_LT(std_usage[0].value, 0.60);
  // HEAP: rich usage rises markedly; spread across classes shrinks.
  EXPECT_GT(heap_usage[0].value, std_usage[0].value + 0.15);
  const double std_spread = std_usage[2].value - std_usage[0].value;
  const double heap_spread =
      std::abs(heap_usage[2].value - heap_usage[0].value);
  EXPECT_LT(heap_spread, std_spread / 2.0);
}

TEST(Experiment, HeapFanoutsMatchEquationOne) {
  // After the estimate warms up, per-class fanout targets follow Eq. 1.
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ms691(),
                       /*nodes=*/100, /*windows=*/6);
  Experiment exp(cfg);
  exp.run();
  double avg_target = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    const double target =
        exp.node(i).module<gossip::GossipModule>().policy().current_target();
    const double expected = 7.0 * exp.info(i).capability.kbits_per_sec() / 691.0;
    EXPECT_NEAR(target, expected, expected * 0.15) << "node " << i;
    avg_target += target;
    ++n;
  }
  // Population average fanout stays ~f (the reliability requirement).
  EXPECT_NEAR(avg_target / static_cast<double>(n), 7.0, 0.5);
}

TEST(Experiment, CatastrophicFailureRecovery) {
  // Fig. 10a's shape: after 20% of nodes crash, HEAP keeps delivering to
  // the survivors; only windows published right around the failure dip.
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                       /*nodes=*/120, /*windows=*/14);
  cfg.churn = {{cfg.stream_start + sim::SimTime::sec(9.0), 0.20}};
  cfg.detection.mean = sim::SimTime::sec(5.0);
  Experiment exp(cfg);
  exp.run();

  std::size_t crashed = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) crashed += exp.info(i).crashed;
  EXPECT_EQ(crashed, static_cast<std::size_t>(0.20 * 120));

  const auto series = per_window_decode_percent(exp, 12.0);
  ASSERT_EQ(series.size(), 14u);
  // Early windows: ~everyone. Late windows: ~the surviving 80%.
  EXPECT_GT(series[1], 90.0);
  EXPECT_GT(series.back(), 72.0);
  EXPECT_LT(series.back(), 82.0);
  // Survivors keep a jitter-free-ish stream at a moderate lag.
  const auto jit = jitter_percent_at_lag(exp, 12.0);
  EXPECT_LT(jit.percentile(50), 15.0);
}

TEST(Experiment, SmartReceiversReduceTraffic) {
  auto smart_cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                             /*nodes=*/80, /*windows=*/6);
  Experiment smart(smart_cfg);
  smart.run();
  auto dumb_cfg = smart_cfg;
  dumb_cfg.smart_receivers = false;
  Experiment dumb(dumb_cfg);
  dumb.run();

  auto total_serve_bytes = [](const Experiment& e) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < e.receivers(); ++i) {
      sum += e.meter(i).sent(net::MsgClass::kServe).bytes;
    }
    return sum;
  };
  // A smart receiver requests ~k+slack of the 110 coded packets per window
  // instead of all of them (~5-8% of serve traffic saved).
  EXPECT_LT(total_serve_bytes(smart), total_serve_bytes(dumb) * 0.97);
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ms691(),
                       /*nodes=*/60, /*windows=*/4);
  Experiment a(cfg);
  a.run();
  Experiment b(cfg);
  b.run();
  ASSERT_EQ(a.receivers(), b.receivers());
  for (std::size_t i = 0; i < a.receivers(); ++i) {
    EXPECT_EQ(a.player(i).packets_received(), b.player(i).packets_received()) << i;
    EXPECT_EQ(a.meter(i).total_sent_bytes(), b.meter(i).total_sent_bytes()) << i;
  }
  EXPECT_EQ(a.events_executed(), b.events_executed());
}

TEST(Experiment, SeedChangesRealization) {
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ms691(),
                       /*nodes=*/60, /*windows=*/4);
  Experiment a(cfg);
  a.run();
  cfg.seed = 1234;
  Experiment b(cfg);
  b.run();
  EXPECT_NE(a.events_executed(), b.events_executed());
}

TEST(Experiment, VirtualPayloadRunIsClockIdenticalToRealRun) {
  // The whole point of virtual payloads: phantom wire bytes make every
  // timing- and accounting-relevant quantity *bit-identical* to a run that
  // ships real, FEC-coded payload bytes of the same size — only the storage
  // disappears. Lean players must be equally invisible to the clock.
  auto base = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                        /*nodes=*/60, /*windows=*/4);
  base.stream.real_payloads = true;
  Experiment real(base);
  real.run();

  auto virt_cfg = base;
  virt_cfg.stream.real_payloads = false;
  virt_cfg.lean_players = true;
  Experiment virt(virt_cfg);
  virt.run();

  ASSERT_EQ(real.receivers(), virt.receivers());
  EXPECT_EQ(real.events_executed(), virt.events_executed());
  EXPECT_EQ(real.fabric().datagrams_delivered(), virt.fabric().datagrams_delivered());
  EXPECT_EQ(real.fabric().datagrams_lost(), virt.fabric().datagrams_lost());
  for (std::size_t i = 0; i < real.receivers(); ++i) {
    EXPECT_EQ(real.meter(i).total_sent_bytes(), virt.meter(i).total_sent_bytes()) << i;
    EXPECT_EQ(real.meter(i).total_received_bytes(), virt.meter(i).total_received_bytes())
        << i;
    EXPECT_EQ(real.player(i).packets_received(), virt.player(i).packets_received()) << i;
    for (std::uint32_t w = 0; w < 4; ++w) {
      EXPECT_EQ(real.player(i).window(w).decode_time, virt.player(i).window(w).decode_time)
          << i << " w" << w;
    }
  }
  // And no payload byte is stored anywhere in the virtual run.
  for (std::size_t i = 0; i < virt.receivers(); ++i) {
    const auto& g = virt.node(i).module<gossip::GossipModule>().engine();
    if (const auto* e = g.delivered_event(gossip::EventId{3, 0})) {
      EXPECT_TRUE(e->virtual_payload());
      EXPECT_EQ(e->payload_size(), base.stream.packet_bytes);
    }
  }
}

TEST(Experiment, VirtualRunsStayClockIdenticalAcrossParityLevels) {
  // The FEC ablation sweeps parity_per_window; virtual-payload accounting
  // identity (same wire bytes, meters, RNG draws) must hold at every parity
  // level — including the parity-free retransmission-only arm — or the
  // 10k/100k ablation rungs measure an artifact.
  for (const std::size_t parity : {std::size_t{0}, std::size_t{5}}) {
    auto base = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                          /*nodes=*/50, /*windows=*/3);
    base.stream.parity_per_window = parity;
    if (parity == 0) base.max_retransmits = 8;  // the rtx-only arm
    base.stream.real_payloads = true;
    Experiment real(base);
    real.run();

    auto virt_cfg = base;
    virt_cfg.stream.real_payloads = false;
    virt_cfg.lean_players = true;
    Experiment virt(virt_cfg);
    virt.run();

    ASSERT_EQ(real.receivers(), virt.receivers());
    EXPECT_EQ(real.events_executed(), virt.events_executed()) << "parity " << parity;
    EXPECT_EQ(real.fabric().datagrams_delivered(), virt.fabric().datagrams_delivered())
        << "parity " << parity;
    for (std::size_t i = 0; i < real.receivers(); ++i) {
      EXPECT_EQ(real.meter(i).total_sent_bytes(), virt.meter(i).total_sent_bytes())
          << "parity " << parity << " node " << i;
      EXPECT_EQ(real.player(i).packets_received(), virt.player(i).packets_received())
          << "parity " << parity << " node " << i;
      for (std::uint32_t w = 0; w < 3; ++w) {
        EXPECT_EQ(real.player(i).window(w).decode_time,
                  virt.player(i).window(w).decode_time)
            << "parity " << parity << " node " << i << " w" << w;
      }
    }
  }
}

TEST(Experiment, FecModuleDecodesOnlineInRealPayloadDeployments) {
  // The deployment mounts FecModule on every receiver in real-payload mode;
  // its online decode must agree window-for-window with the player's
  // counting rule, repair actual erasures under loss, and never see a
  // malformed shard set from our own wire path.
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                       /*nodes=*/40, /*windows=*/3);
  cfg.stream.real_payloads = true;
  cfg.loss_rate = 0.02;  // enough loss that parity repair actually happens
  Experiment exp(cfg);
  exp.run();

  std::uint64_t decoded = 0, repaired = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    const auto* fec = exp.node(i).find_module<stream::FecModule>();
    ASSERT_NE(fec, nullptr) << "receiver " << i << " is missing the FEC module";
    const auto& st = fec->stats();
    EXPECT_EQ(st.decode_failures, 0u) << i;
    EXPECT_EQ(st.malformed_packets, 0u) << i;
    decoded += st.windows_decoded;
    repaired += st.erasures_repaired;
    for (std::uint32_t w = 0; w < 3; ++w) {
      EXPECT_EQ(fec->window_decoded(w),
                exp.player(i).window(w).decode_time != sim::SimTime::max())
          << "receiver " << i << " window " << w;
    }
  }
  // Nearly every (receiver, window) pair decodes, and at least some decodes
  // had to reconstruct data packets from parity.
  EXPECT_GT(decoded, static_cast<std::uint64_t>(exp.receivers()) * 3u * 9u / 10u);
  EXPECT_GT(repaired, 0u);
}

TEST(Experiment, SmartReceiverCancellationReachesTheGossipEngine) {
  // Decode-on-k cancellation observability: smart receivers cancel each
  // window once it is decodable, and the gossip stats record both the
  // honored cancel commands and any retransmit timers they killed.
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                       /*nodes=*/40, /*windows=*/3);
  Experiment exp(cfg);
  exp.run();

  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    const auto& st = exp.node(i).module<gossip::GossipModule>().engine().stats();
    cancelled += st.windows_cancelled;
    EXPECT_LE(st.windows_cancelled, 3u) << i;  // once per window, idempotent
  }
  // Nearly every receiver decodes (and therefore cancels) every window.
  EXPECT_GT(cancelled, static_cast<std::uint64_t>(exp.receivers()) * 3u * 9u / 10u);

  auto dumb_cfg = cfg;
  dumb_cfg.smart_receivers = false;
  Experiment dumb(dumb_cfg);
  dumb.run();
  std::uint64_t dumb_cancelled = 0;
  for (std::size_t i = 0; i < dumb.receivers(); ++i) {
    dumb_cancelled +=
        dumb.node(i).module<gossip::GossipModule>().engine().stats().windows_cancelled;
  }
  EXPECT_EQ(dumb_cancelled, 0u);  // nothing cancels without smart receivers
}

TEST(Experiment, RealPayloadsDecodeByteExact) {
  // Full fidelity mode: actual Reed-Solomon windows flow through the whole
  // stack; verify a receiver can reconstruct the exact source bytes.
  auto cfg = small_cfg(core::Mode::kHeap, BandwidthDistribution::ref691(),
                       /*nodes=*/40, /*windows=*/2);
  cfg.stream.real_payloads = true;
  Experiment exp(cfg);
  exp.run();

  // End-to-end byte fidelity: reconstruct window 0 from a receiver's gossip
  // store and compare against the deterministic source payloads.
  fec::WindowCodec codec(
      fec::WindowCodecConfig{.data_per_window = cfg.stream.data_per_window,
                             .parity_per_window = cfg.stream.parity_per_window,
                             .packet_bytes = cfg.stream.packet_bytes});
  std::size_t verified_nodes = 0;
  for (std::size_t i = 0; i < exp.receivers() && verified_nodes < 5; ++i) {
    const auto& g = exp.node(i).module<gossip::GossipModule>().engine();
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(
        cfg.stream.window_packets());
    for (std::uint16_t k = 0; k < cfg.stream.window_packets(); ++k) {
      if (const auto* e = g.delivered_event(gossip::EventId{0, k})) {
        shards[k] = e->payload.to_vector();
      }
    }
    auto decoded = codec.decode_window(shards);
    if (!decoded.has_value()) continue;
    for (std::uint16_t k = 0; k < cfg.stream.data_per_window; ++k) {
      ASSERT_EQ((*decoded)[k],
                stream::synth_payload(0, k, cfg.stream.packet_bytes).to_vector())
          << "node " << i << " packet " << k;
    }
    ++verified_nodes;
  }
  EXPECT_GE(verified_nodes, 5u);
}

}  // namespace
}  // namespace hg::scenario
