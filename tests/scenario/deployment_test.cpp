// Deployment builder validation + mixed protocol-stack populations.
#include "scenario/deployment.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "aggregation/aggregation_module.hpp"
#include "gossip/gossip_module.hpp"
#include "scenario/experiment.hpp"
#include "scenario/report.hpp"
#include "stream/fec_module.hpp"

namespace hg::scenario {
namespace {

PopulationPlan tiny_population(std::size_t n) {
  PopulationPlan plan;
  plan.node_count = n;
  plan.distribution = BandwidthDistribution::ref691();
  return plan;
}

TEST(DeploymentBuilderDeathTest, ChurnFractionAboveOneRejected) {
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .churn(ChurnPlan{{{sim::SimTime::sec(5.0), 1.5}}, {}})
                   .build(),
               "fraction must be within");
}

TEST(DeploymentBuilderDeathTest, NegativeChurnFractionRejected) {
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .churn(ChurnPlan{{{sim::SimTime::sec(5.0), -0.25}}, {}})
                   .build(),
               "fraction must be within");
}

TEST(DeploymentBuilderDeathTest, NonMonotoneChurnScheduleRejected) {
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .churn(ChurnPlan{{{sim::SimTime::sec(9.0), 0.1},
                                     {sim::SimTime::sec(5.0), 0.1}},
                                    {}})
                   .build(),
               "sorted by time");
}

// Timing configs that could only abort mid-run (a negative detection delay
// scheduled into the past, a zero period fed to Rng::below, a stream of no
// windows) are rejected where their component is built, naming the field.
TEST(DeploymentBuilderDeathTest, DetectionSpreadAboveOneRejected) {
  ChurnPlan churn;
  churn.detection.spread = 1.5;
  EXPECT_DEATH(Deployment::Builder{}.population(tiny_population(5)).churn(churn).build(),
               "DetectionConfig::spread must be within");
}

TEST(DeploymentBuilderDeathTest, NegativeDetectionMeanRejected) {
  ChurnPlan churn;
  churn.detection.mean = sim::SimTime::sec(-1.0);
  EXPECT_DEATH(Deployment::Builder{}.population(tiny_population(5)).churn(churn).build(),
               "DetectionConfig::mean must not be negative");
}

TEST(DeploymentBuilderDeathTest, ZeroWheelTickRejected) {
  ChurnPlan churn;
  churn.detection.wheel_tick = sim::SimTime::zero();
  EXPECT_DEATH(Deployment::Builder{}.population(tiny_population(5)).churn(churn).build(),
               "DetectionConfig::wheel_tick must be positive");
}

TEST(DeploymentBuilderDeathTest, ZeroGossipPeriodRejected) {
  PopulationPlan plan = tiny_population(5);
  plan.node.gossip.period = sim::SimTime::zero();
  EXPECT_DEATH(Deployment::Builder{}.population(plan).build(),
               "GossipConfig::period must be positive");
}

TEST(DeploymentBuilderDeathTest, ZeroAggregationPeriodRejected) {
  PopulationPlan plan = tiny_population(5);
  plan.node.mode = core::Mode::kHeap;  // the mode that runs the aggregator
  plan.node.aggregation.period = sim::SimTime::zero();
  EXPECT_DEATH(Deployment::Builder{}.population(plan).build(),
               "AggregationConfig::period must be positive");
}

TEST(DeploymentBuilderDeathTest, ZeroRecordsPerGossipRejected) {
  PopulationPlan plan = tiny_population(5);
  plan.node.mode = core::Mode::kHeap;
  plan.node.aggregation.records_per_gossip = 0;
  EXPECT_DEATH(Deployment::Builder{}.population(plan).build(),
               "AggregationConfig::records_per_gossip must be positive");
}

TEST(DeploymentBuilderDeathTest, RecordsPerGossipAboveTheDecoderLimitRejected) {
  // Every receiver would drop such a round as malformed once the table
  // holds that many origins.
  PopulationPlan plan = tiny_population(5);
  plan.node.mode = core::Mode::kHeap;
  plan.node.aggregation.records_per_gossip = gossip::kMaxAggregationRecords + 1;
  EXPECT_DEATH(Deployment::Builder{}.population(plan).build(),
               "records_per_gossip exceeds gossip::kMaxAggregationRecords");
}

TEST(DeploymentBuilderDeathTest, ZeroStreamWindowsRejected) {
  StreamPlan stream;
  stream.windows = 0;
  EXPECT_DEATH(Deployment::Builder{}.population(tiny_population(5)).stream(stream).build(),
               "StreamPlan::windows must be positive");
}

TEST(DeploymentBuilderDeathTest, NegativeMaxFanoutRejected) {
  PopulationPlan plan = tiny_population(5);
  plan.node.mode = core::Mode::kHeap;  // the mode that builds AdaptiveFanout
  plan.node.max_fanout = -1.0;
  EXPECT_DEATH(Deployment::Builder{}.population(plan).build(),
               "AdaptiveFanoutConfig::max_fanout must not be negative or NaN");
}

TEST(DeploymentBuilderDeathTest, LossRateOutsideUnitIntervalRejected) {
  for (const double rate : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    NetworkPlan network;
    network.loss_rate = rate;
    EXPECT_DEATH(Deployment::Builder{}.population(tiny_population(5)).network(network).build(),
                 "FabricConfig::loss_rate must be within");
  }
}

// A latency config that would schedule deliveries into the past or break
// std::clamp's precondition mid-run is rejected where the model is built,
// one case per rule, each naming its field.
TEST(DeploymentBuilderDeathTest, InvalidLatencyConfigRejected) {
  const auto build = [](const net::PlanetLabLatencyConfig& latency) {
    NetworkPlan network;
    network.latency = latency;
    (void)Deployment::Builder{}.population(tiny_population(5)).network(network).build();
  };
  net::PlanetLabLatencyConfig cfg;
  cfg.log_mean_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(build(cfg), "PlanetLabLatencyConfig::log_mean_ms must be finite");
  cfg = {};
  cfg.min_ms = -1.0;
  EXPECT_DEATH(build(cfg), "PlanetLabLatencyConfig::min_ms must be finite and not negative");
  cfg = {};
  cfg.min_ms = 10.0;
  cfg.max_ms = 5.0;
  EXPECT_DEATH(build(cfg), "PlanetLabLatencyConfig::max_ms must be finite and not below min_ms");
  cfg = {};
  cfg.jitter_max_ms = -5.0;
  EXPECT_DEATH(build(cfg), "PlanetLabLatencyConfig::jitter_max_ms must be finite and not negative");
  cfg = {};
  cfg.log_sigma = -0.5;
  EXPECT_DEATH(build(cfg), "PlanetLabLatencyConfig::log_sigma must be finite and not negative");
}

// Superstep epochs are the latency floor: with none, cross-partition
// datagrams could arrive inside the epoch that sent them.
TEST(DeploymentBuilderDeathTest, ZeroLatencyFloorWithPartitionsRejected) {
  NetworkPlan network;
  network.latency.min_ms = 0.0;
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .network(network)
                   .parallel(ParallelPlan{.workers = 1, .partitions = 2})
                   .build(),
               "multiple partitions require a positive epoch width");
}

TEST(DeploymentBuilder, GossipWindowGeometryFollowsTheStream) {
  // A 121-packet stream window with a default node template: the builder
  // sizes every gossip ring from the stream, so the run reaches its end and
  // no id past the default 110 slots is rejected as malformed.
  StreamPlan stream;
  stream.stream.parity_per_window = 20;
  stream.windows = 2;
  auto d = Deployment::Builder{}.population(tiny_population(5)).stream(stream).build();
  d->start();
  const double stream_sec =
      stream.stream.window_duration_sec() * static_cast<double>(stream.windows);
  d->run_until(stream.start + sim::SimTime::sec(stream_sec + 10.0));
  std::uint64_t malformed = 0;
  std::uint64_t packets = 0;
  for (std::size_t i = 0; i < d->receivers(); ++i) {
    const auto& engine = d->node(i).module<gossip::GossipModule>().engine();
    EXPECT_EQ(engine.config().packets_per_window, 121u);
    malformed += engine.stats().malformed;
    packets += d->player(i).packets_received();
  }
  EXPECT_EQ(malformed, 0u);
  EXPECT_GT(packets, 0u);
}

TEST(DeploymentBuilder, ValidChurnScheduleBuilds) {
  auto d = Deployment::Builder{}
               .population(tiny_population(5))
               .churn(ChurnPlan{{{sim::SimTime::sec(5.0), 0.0},
                                 {sim::SimTime::sec(5.0), 0.2},
                                 {sim::SimTime::sec(9.0), 1.0}},
                                {}})
               .build();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->receivers(), 5u);
}

TEST(DeploymentBuilder, DefaultFactoryHandsOutPresetByMode) {
  PopulationPlan plan = tiny_population(3);
  plan.node.mode = core::Mode::kStandard;
  auto d = Deployment::Builder{}.population(plan).build();
  EXPECT_EQ(d->node(0).config().mode, core::Mode::kStandard);
  EXPECT_NE(d->node(0).find_module<gossip::GossipModule>(), nullptr);
  EXPECT_EQ(d->node(0).find_module<aggregation::AggregationModule>(), nullptr);
  EXPECT_EQ(d->node(0).find_module<stream::FecModule>(), nullptr);  // virtual payloads
}

// Real payloads: the source and every receiver's FecModule borrow the
// deployment's one codec, and every decoded window reaches the sink
// byte-exact, whether it needed repair or arrived complete.
TEST(Deployment, RealPayloadsShareOneCodecAndDecodeByteExact) {
  ExperimentConfig cfg;
  cfg.node_count = 30;
  cfg.stream_windows = 3;
  cfg.stream.real_payloads = true;
  cfg.loss_rate = 0.02;  // enough loss that some windows decode through parity
  cfg.seed = 11;
  auto d = Deployment::Builder{}
               .seed(cfg.seed)
               .network(cfg.network_plan())
               .population(cfg.population_plan())
               .stream(cfg.stream_plan())
               .build();

  const fec::WindowCodec* codec = d->source().codec();
  ASSERT_NE(codec, nullptr);
  std::size_t sunk = 0;
  for (std::size_t i = 0; i < d->receivers(); ++i) {
    auto* fec = d->node(i).find_module<stream::FecModule>();
    ASSERT_NE(fec, nullptr) << "receiver " << i;
    EXPECT_EQ(&fec->codec(), codec) << "receiver " << i;
    fec->set_window_sink(
        [&sunk, &cfg](std::uint32_t w, std::span<const std::span<const std::uint8_t>> data) {
          ++sunk;
          ASSERT_EQ(data.size(), cfg.stream.data_per_window);
          for (std::uint16_t k = 0; k < data.size(); ++k) {
            ASSERT_EQ(std::vector<std::uint8_t>(data[k].begin(), data[k].end()),
                      stream::synth_payload_bytes(w, k, cfg.stream.packet_bytes))
                << "window " << w << " packet " << k;
          }
        });
  }
  d->start();
  d->run_until(cfg.run_end());

  std::uint64_t decoded = 0, complete = 0, repaired = 0;
  for (std::size_t i = 0; i < d->receivers(); ++i) {
    const auto& st = d->node(i).module<stream::FecModule>().stats();
    decoded += st.windows_decoded;
    complete += st.windows_complete;
    repaired += st.erasures_repaired;
  }
  EXPECT_EQ(sunk, decoded);
  EXPECT_GT(complete, 0u);
  EXPECT_GT(repaired, 0u);
}

// Teardown audit: payloads travel as shared chunks (the source's packet is
// the body of every serve and sits in every receiver's store), so one
// refcount leak would pin a chunk forever. Building, running, and destroying
// a real-payload deployment must hand every pooled chunk back, on the
// sequential engine and across the sharded exchange (one worker: every
// partition runs on this thread, so this thread's pool sees every chunk).
TEST(Deployment, RealPayloadTeardownReturnsEveryChunk) {
  for (const std::uint32_t partitions : {0u, 4u}) {
    ExperimentConfig cfg;
    cfg.node_count = 30;
    cfg.stream_windows = 3;
    cfg.stream.real_payloads = true;
    cfg.loss_rate = 0.02;
    cfg.seed = 11;
    cfg.workers = partitions == 0 ? 0 : 1;
    cfg.partitions = partitions;
    const std::int64_t baseline = net::BufferPool::local().live_chunks();
    {
      auto d = Deployment::Builder{}
                   .seed(cfg.seed)
                   .network(cfg.network_plan())
                   .population(cfg.population_plan())
                   .stream(cfg.stream_plan())
                   .parallel(cfg.parallel_plan())
                   .build();
      EXPECT_EQ(d->parallel(), partitions != 0);
      d->start();
      d->run_until(cfg.run_end());
      std::uint64_t decoded = 0;
      for (std::size_t i = 0; i < d->receivers(); ++i) {
        decoded += d->node(i).module<stream::FecModule>().stats().windows_decoded;
      }
      EXPECT_GT(decoded, 0u) << "partitions=" << partitions;
      EXPECT_GT(net::BufferPool::local().live_chunks(), baseline);
    }
    EXPECT_EQ(net::BufferPool::local().live_chunks(), baseline) << "partitions=" << partitions;
  }
}

// The fabric's datagram counters balance against the per-node traffic
// meters, at one partition and across the sharded exchange: every delivery
// bumps exactly one receiver meter (the source included), and every loss
// exactly one sender's in-flight drop count. Sends filtered at a dead
// destination and arrivals at a node crashed in flight touch neither side.
TEST(Deployment, FabricCountersMatchTheMetersAtEveryLayout) {
  for (const std::uint32_t partitions : {0u, 4u}) {
    ExperimentConfig cfg;
    cfg.node_count = 40;
    cfg.stream_windows = 3;
    cfg.loss_rate = 0.02;
    cfg.churn = {{sim::SimTime::sec(4.0), 0.3}};
    cfg.seed = 13;
    cfg.workers = partitions == 0 ? 0 : 2;
    cfg.partitions = partitions;
    Experiment e(cfg);
    e.run();
    const net::NetworkFabric& fabric = e.fabric();
    std::uint64_t received = 0;
    std::uint64_t dropped = 0;
    for (std::uint32_t id = 0; id < fabric.node_count(); ++id) {
      const net::TrafficMeter& meter = fabric.meter(NodeId{id});
      for (std::size_t c = 0; c < static_cast<std::size_t>(net::MsgClass::kCount_); ++c) {
        received += meter.received(static_cast<net::MsgClass>(c)).msgs;
      }
      dropped += meter.dropped_msgs();
    }
    EXPECT_EQ(fabric.datagrams_delivered(), received) << "partitions=" << partitions;
    EXPECT_EQ(fabric.datagrams_lost(), dropped) << "partitions=" << partitions;
    EXPECT_GT(received, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(e.deployment().parallel(), partitions != 0);
  }
}

// The tentpole's payoff scenario: a standard-gossip minority runs inside a
// HEAP deployment via the node factory — and the deployment still delivers
// the stream to (essentially) everyone.
TEST(Deployment, MixedPopulationStillConverges) {
  constexpr std::size_t kNodes = 80;
  constexpr std::uint32_t kStandardCount = 20;  // 25% fixed-fanout minority

  ExperimentConfig cfg;
  cfg.node_count = kNodes;
  cfg.stream_windows = 8;
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.tail = sim::SimTime::sec(40.0);
  cfg.seed = 5;
  cfg.node_factory = [](sim::Simulator& s, net::NetworkFabric& f, membership::Directory& dir,
                        NodeId id, core::NodeConfig node_cfg) {
    if (id.value() >= 1 && id.value() <= kStandardCount) node_cfg.mode = core::Mode::kStandard;
    return core::NodeRuntime::make(s, f, dir, id, node_cfg);
  };
  Experiment exp(cfg);
  exp.run();

  // Both sub-populations exist as requested. Fixed-fanout nodes drop their
  // HEAP peers' capability records as unknown tags; HEAP nodes claim every
  // datagram they receive.
  std::size_t standard_nodes = 0;
  std::uint64_t standard_unknown = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    const bool standard = exp.node(i).config().mode == core::Mode::kStandard;
    standard_nodes += standard;
    if (standard) {
      standard_unknown += exp.node(i).stats().unknown_tag_datagrams;
    } else {
      EXPECT_EQ(exp.node(i).stats().unknown_tag_datagrams, 0u) << "receiver " << i;
    }
  }
  EXPECT_EQ(standard_nodes, kStandardCount);
  EXPECT_GT(standard_unknown, 0u);

  // Convergence: at a 15 s lag, both groups enjoy a near-jitter-free stream
  // on the reference distribution.
  const auto jitter = jitter_percent_at_lag(exp, 15.0);
  EXPECT_LT(jitter.mean(), 5.0);
  double standard_jitter = 0;
  double heap_jitter = 0;
  stream::LagAnalyzer analyzer(exp.source());
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    const double j = 100.0 * analyzer.jitter_fraction(exp.player(i), 15.0);
    if (exp.node(i).config().mode == core::Mode::kStandard) {
      standard_jitter += j / kStandardCount;
    } else {
      heap_jitter += j / (kNodes - kStandardCount);
    }
  }
  EXPECT_LT(standard_jitter, 8.0);
  EXPECT_LT(heap_jitter, 8.0);
}

}  // namespace
}  // namespace hg::scenario
