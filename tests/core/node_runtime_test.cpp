#include "core/node_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aggregation/aggregation_module.hpp"
#include "core/signal.hpp"
#include "fec/window_codec.hpp"
#include "gossip/gossip_module.hpp"
#include "stream/fec_module.hpp"
#include "stream/player_module.hpp"
#include "stream/source.hpp"

namespace hg::core {
namespace {

struct Swarm {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  membership::Directory directory;
  std::vector<std::unique_ptr<NodeRuntime>> nodes;

  explicit Swarm(std::size_t n, Mode mode, BitRate cap = BitRate::kbps(1000))
      : engine(17, n, {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)),
               std::make_unique<net::NoLoss>()),
        directory(engine, membership::DetectionConfig{}) {
    for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      NodeConfig cfg;
      cfg.mode = mode;
      cfg.capability = cap;
      nodes.push_back(NodeRuntime::make(sim, fabric, directory, NodeId{i}, cfg));
      nodes.back()->attach(BitRate::unlimited());
    }
    for (auto& node : nodes) node->start();
  }

  [[nodiscard]] gossip::ThreePhaseGossip& gossip(std::size_t i) {
    return nodes[i]->module<gossip::GossipModule>().engine();
  }
};

gossip::Event make_event(std::uint32_t window, std::uint16_t index) {
  return gossip::Event{gossip::EventId{window, index},
                       net::BufferRef::copy_of(std::vector<std::uint8_t>(64, 1))};
}

TEST(NodeRuntime, StandardPresetMountsOnlyGossip) {
  Swarm s(3, Mode::kStandard);
  EXPECT_EQ(s.nodes[0]->find_module<aggregation::AggregationModule>(), nullptr);
  EXPECT_DOUBLE_EQ(s.nodes[0]->module<gossip::GossipModule>().policy().current_target(), 7.0);
  const auto names = s.nodes[0]->module_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_STREQ(names[0], "gossip");
}

TEST(NodeRuntime, HeapPresetRunsAggregation) {
  Swarm s(10, Mode::kHeap);
  const auto names = s.nodes[0]->module_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_STREQ(names[0], "gossip");
  EXPECT_STREQ(names[1], "aggregation");
  s.sim.run_until(sim::SimTime::sec(10));
  // Homogeneous capabilities: estimate equals own capability, fanout stays 7.
  const auto& agg = s.nodes[0]->module<aggregation::AggregationModule>().aggregator();
  EXPECT_GT(agg.known_origins(), 5u);
  EXPECT_NEAR(agg.average_capability_bps(), 1'000'000.0, 1.0);
  EXPECT_NEAR(s.nodes[0]->module<gossip::GossipModule>().policy().current_target(), 7.0, 0.01);
}

TEST(NodeRuntime, DispatchRoutesGossipAndAggregationByTag) {
  Swarm s(5, Mode::kHeap);
  s.nodes[0]->publish(make_event(0, 0));
  s.sim.run_until(sim::SimTime::sec(5));
  // Gossip events delivered everywhere AND aggregation records exchanged,
  // all through the single per-node tag table.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_TRUE(s.gossip(i).has_delivered(gossip::EventId{0, 0})) << i;
    EXPECT_GT(s.nodes[i]->module<aggregation::AggregationModule>().aggregator().known_origins(),
              0u)
        << i;
    EXPECT_GT(s.nodes[i]->stats().datagrams_dispatched, 0u) << i;
  }
}

TEST(NodeRuntime, UnknownTagIsCountedAndDropped) {
  Swarm s(2, Mode::kHeap);
  auto junk = net::BufferRef::copy_of(std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef});
  s.fabric.send(NodeId{0}, NodeId{1}, net::MsgClass::kOther, junk);
  s.sim.run_until(sim::SimTime::sec(1));  // must not crash
  EXPECT_EQ(s.nodes[1]->stats().unknown_tag_datagrams, 1u);
  EXPECT_EQ(s.gossip(1).stats().events_delivered, 0u);
}

TEST(NodeRuntimeDeathTest, StrictModeAbortsOnUnknownTag) {
  ASSERT_DEATH(
      {
        Swarm s(2, Mode::kHeap);
        s.nodes[1]->set_strict_unknown_tags(true);
        auto junk = net::BufferRef::copy_of(std::vector<std::uint8_t>{0xde, 0xad});
        s.fabric.send(NodeId{0}, NodeId{1}, net::MsgClass::kOther, junk);
        s.sim.run_until(sim::SimTime::sec(1));
      },
      "unknown-tag datagram");
}

TEST(NodeRuntimeDeathTest, DuplicateTagRegistrationAborts) {
  ASSERT_DEATH(
      {
        sim::ShardedEngine engine(1, 1, {});
        net::NetworkFabric fabric(engine,
                                  std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1)),
                                  std::make_unique<net::NoLoss>());
        membership::Directory directory(engine, membership::DetectionConfig{});
        directory.add_node(NodeId{0});
        NodeRuntime rt(engine.sim_of(0), fabric, directory, NodeId{0}, NodeConfig{});
        auto handler = [](void*, const net::Datagram&) {};
        auto a = rt.register_handler(gossip::MsgTag::kPropose, nullptr, handler);
        auto b = rt.register_handler(gossip::MsgTag::kPropose, nullptr, handler);
      },
      "duplicate tag registration");
}

TEST(NodeRuntime, TagRegistrationDeregistersOnDestruction) {
  sim::ShardedEngine engine(1, 1, {});
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1)),
                            std::make_unique<net::NoLoss>());
  membership::Directory directory(engine, membership::DetectionConfig{});
  directory.add_node(NodeId{0});
  NodeRuntime rt(engine.sim_of(0), fabric, directory, NodeId{0}, NodeConfig{});

  int hits = 0;
  const net::Datagram d{NodeId{0}, NodeId{0}, net::MsgClass::kAggregation, 0,
                        net::BufferRef::copy_of(std::vector<std::uint8_t>{
                            static_cast<std::uint8_t>(gossip::MsgTag::kAggregation)}),
                        {}};
  {
    TagRegistration reg = rt.register_handler(
        gossip::MsgTag::kAggregation, &hits,
        [](void* ctx, const net::Datagram&) { ++*static_cast<int*>(ctx); });
    EXPECT_TRUE(reg.active());
    rt.on_datagram(d);
    EXPECT_EQ(hits, 1);
  }
  // RAII handle gone: the tag routes nowhere and counts as unknown.
  rt.on_datagram(d);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(rt.stats().unknown_tag_datagrams, 1u);
  // The slot is reusable after deregistration.
  TagRegistration again = rt.register_handler(
      gossip::MsgTag::kAggregation, &hits,
      [](void* ctx, const net::Datagram&) { *static_cast<int*>(ctx) += 10; });
  rt.on_datagram(d);
  EXPECT_EQ(hits, 11);
}

TEST(NodeRuntime, IgnoredTagIsCountedSeparatelyAndSurvivesStrictMode) {
  Swarm s(2, Mode::kStandard);
  s.nodes[1]->set_strict_unknown_tags(true);
  s.nodes[1]->ignore_tag(gossip::MsgTag::kAggregation);
  auto record = net::BufferRef::copy_of(
      std::vector<std::uint8_t>{static_cast<std::uint8_t>(gossip::MsgTag::kAggregation), 0});
  s.fabric.send(NodeId{0}, NodeId{1}, net::MsgClass::kAggregation, record);
  s.sim.run_until(sim::SimTime::sec(1));  // strict mode must not trip
  EXPECT_EQ(s.nodes[1]->stats().ignored_datagrams, 1u);
  EXPECT_EQ(s.nodes[1]->stats().unknown_tag_datagrams, 0u);
}

TEST(NodeRuntime, StartStopAreIdempotent) {
  Swarm s(2, Mode::kHeap);
  // Swarm already started every node; a second start must not double-arm
  // the gossip timer (which would double the round rate).
  s.nodes[0]->start();
  EXPECT_TRUE(s.nodes[0]->running());
  s.sim.run_until(sim::SimTime::sec(2.05));
  const auto rounds = s.gossip(0).stats().rounds;
  EXPECT_GE(rounds, 9u);   // one 200 ms timer: ~10 rounds in 2 s
  EXPECT_LE(rounds, 11u);  // two timers would give ~20

  s.nodes[0]->stop();
  s.nodes[0]->stop();  // idempotent
  EXPECT_FALSE(s.nodes[0]->running());
  s.sim.run_until(sim::SimTime::sec(4.0));
  EXPECT_EQ(s.gossip(0).stats().rounds, rounds);  // timers actually cancelled

  s.nodes[0]->start();  // restart re-arms
  s.sim.run_until(sim::SimTime::sec(6.0));
  EXPECT_GT(s.gossip(0).stats().rounds, rounds);
}

TEST(NodeRuntime, DeliverySignalFansOutToSubscribersInOrder) {
  Swarm s(2, Mode::kStandard);
  std::vector<int> order;
  Subscription first = s.nodes[1]->deliveries().subscribe(
      [&order](const gossip::Event&) { order.push_back(1); });
  Subscription second = s.nodes[1]->deliveries().subscribe(
      [&order](const gossip::Event&) { order.push_back(2); });
  // The player glue is absent here, so these are the only subscribers.
  s.nodes[0]->publish(make_event(0, 0));
  s.sim.run_until(sim::SimTime::sec(3));
  ASSERT_TRUE(s.gossip(1).has_delivered(gossip::EventId{0, 0}));
  ASSERT_EQ(order.size(), 2u);  // one delivery, both observers, in order
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);

  first.reset();
  s.nodes[0]->publish(make_event(0, 1));
  s.sim.run_until(sim::SimTime::sec(6));
  ASSERT_EQ(order.size(), 3u);  // only the surviving observer fired
  EXPECT_EQ(order[2], 2);
}

TEST(NodeRuntime, RequestGateIsAndOverSubscribers) {
  Swarm s(2, Mode::kStandard);
  // Empty gate: everything is requested (delivery works end to end).
  Subscription allow = s.nodes[1]->request_gate().subscribe(
      [](gossip::EventId) { return true; });
  Subscription veto_window0 = s.nodes[1]->request_gate().subscribe(
      [](gossip::EventId id) { return id.window() != 0; });
  s.nodes[0]->publish(make_event(0, 0));
  s.nodes[0]->publish(make_event(1, 0));
  s.sim.run_until(sim::SimTime::sec(5));
  EXPECT_FALSE(s.gossip(1).has_delivered(gossip::EventId{0, 0}));  // vetoed
  EXPECT_TRUE(s.gossip(1).has_delivered(gossip::EventId{1, 0}));
  EXPECT_GT(s.gossip(1).stats().declined_requests, 0u);
}

TEST(NodeRuntime, CustomStackMultiplexesGossipAggregationAndFecOnOnePort) {
  // The payoff of tag routing: a stack assembled module by module shares
  // each node's port, each module claiming its own tags or signals, with
  // zero coordination between the modules. Strict mode makes any datagram
  // no module claims abort the run.
  constexpr std::size_t kN = 6;
  sim::ShardedEngine engine(31, kN, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)),
                            std::make_unique<net::NoLoss>());
  membership::Directory directory(engine, membership::DetectionConfig{});
  for (std::uint32_t i = 0; i < kN; ++i) directory.add_node(NodeId{i});

  stream::StreamConfig stream_cfg;
  stream_cfg.data_per_window = 5;
  stream_cfg.parity_per_window = 3;
  stream_cfg.packet_bytes = 64;
  stream_cfg.real_payloads = true;
  const fec::WindowCodec codec({.data_per_window = stream_cfg.data_per_window,
                                .parity_per_window = stream_cfg.parity_per_window,
                                .packet_bytes = stream_cfg.packet_bytes});

  // Per node, the decoded windows whose data packets are the source's bytes.
  std::vector<int> windows_intact(kN, 0);
  auto count_intact = [&windows_intact, &stream_cfg](std::size_t node) {
    return [&windows_intact, &stream_cfg, node](
               std::uint32_t w, std::span<const std::span<const std::uint8_t>> data) {
      bool intact = true;
      for (std::uint16_t k = 0; k < data.size(); ++k) {
        const auto sent = stream::synth_payload_bytes(w, k, stream_cfg.packet_bytes);
        if (!std::ranges::equal(data[k], sent)) intact = false;
      }
      if (intact) ++windows_intact[node];
    };
  };

  std::vector<std::unique_ptr<stream::Player>> players;
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    NodeConfig cfg;
    cfg.capability = BitRate::kbps(500 + 100 * i);
    cfg.gossip.packets_per_window = static_cast<std::uint32_t>(stream_cfg.window_packets());
    auto rt = std::make_unique<NodeRuntime>(sim, fabric, directory, NodeId{i}, cfg);
    rt->set_strict_unknown_tags(true);
    auto& agg = rt->emplace_module<aggregation::AggregationModule>(cfg.capability, cfg.aggregation);
    auto policy = std::make_unique<gossip::AdaptiveFanout>(cfg.capability, &agg.aggregator(),
                                                           gossip::AdaptiveFanoutConfig{});
    rt->emplace_module<gossip::GossipModule>(cfg.gossip, std::move(policy));
    players.push_back(std::make_unique<stream::Player>(sim, stream_cfg, 1));
    rt->emplace_module<stream::PlayerModule>(*players.back());
    rt->emplace_module<stream::FecModule>(codec, 1).set_window_sink(count_intact(i));
    rt->attach(BitRate::unlimited());
    nodes.push_back(std::move(rt));
  }
  stream::StreamSource source(
      sim, stream_cfg, [&nodes](gossip::Event e) { nodes[0]->publish(std::move(e)); }, &codec);
  source.start(sim::SimTime::ms(100), 1);
  for (auto& n : nodes) n->start();
  sim.run_until(sim::SimTime::sec(6));

  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(players[i]->decodable_by(0, sim.now())) << i;
    EXPECT_TRUE(nodes[i]->module<stream::FecModule>().window_decoded(0)) << i;
    EXPECT_EQ(windows_intact[i], 1) << i;
    const auto& agg = nodes[i]->module<aggregation::AggregationModule>().aggregator();
    EXPECT_GT(agg.known_origins(), 0u) << i;
    EXPECT_GT(agg.average_capability_bps(), 0.0) << i;
    EXPECT_EQ(nodes[i]->stats().unknown_tag_datagrams, 0u) << i;
  }
}

TEST(NodeRuntime, FreeriderAdvertisingLowCapabilityContributesLess) {
  // §5 "nodes would pretend to be poor in order not to contribute": a node
  // that *declares* a fraction of its true capability gets a matching
  // fanout reduction — the attack HEAP's incentive discussion worries about.
  constexpr std::size_t kN = 20;
  sim::ShardedEngine engine(23, kN, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)),
                            std::make_unique<net::NoLoss>());
  membership::Directory directory(engine, membership::DetectionConfig{});
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) directory.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < kN; ++i) {
    NodeConfig cfg;
    cfg.mode = Mode::kHeap;
    // Node 5 is a freerider: true capacity 1 Mbps, declares 128 kbps.
    cfg.capability = (i == 5) ? BitRate::kbps(128) : BitRate::kbps(1000);
    nodes.push_back(NodeRuntime::heap(sim, fabric, directory, NodeId{i}, cfg));
    nodes.back()->attach(BitRate::kbps(1000));
  }
  for (auto& n : nodes) n->start();
  sim.run_until(sim::SimTime::sec(15));

  auto target = [&](std::size_t i) {
    return nodes[i]->module<gossip::GossipModule>().policy().current_target();
  };
  EXPECT_NEAR(target(5) / target(1), 128.0 / 1000.0, 0.03);
}

TEST(NodeRuntime, StopHaltsActivity) {
  Swarm s(5, Mode::kHeap);
  s.sim.run_until(sim::SimTime::sec(2));
  s.nodes[0]->stop();
  const auto sent_before = s.fabric.meter(NodeId{0}).total_offered_bytes();
  s.sim.run_until(sim::SimTime::sec(10));
  const auto sent_after = s.fabric.meter(NodeId{0}).total_offered_bytes();
  EXPECT_EQ(sent_before, sent_after);
}

// --- signal primitives ------------------------------------------------------

TEST(Signal, SubscribersRunInSubscriptionOrderAndDetachOnReset) {
  Signal<int> sig;
  std::vector<int> seen;
  Subscription a = sig.subscribe([&seen](int v) { seen.push_back(v * 10); });
  Subscription b = sig.subscribe([&seen](int v) { seen.push_back(v * 10 + 1); });
  sig.emit(1);
  ASSERT_EQ(seen, (std::vector<int>{10, 11}));
  a.reset();
  EXPECT_FALSE(a.active());
  sig.emit(2);
  ASSERT_EQ(seen, (std::vector<int>{10, 11, 21}));
  EXPECT_EQ(sig.subscriber_count(), 1u);
}

TEST(Signal, SubscriptionIsMoveOnlyAndDetachesOnceAtDestruction) {
  Signal<> sig;
  int hits = 0;
  {
    Subscription outer;
    {
      Subscription inner = sig.subscribe([&hits]() { ++hits; });
      outer = std::move(inner);
      EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move): asserting moved-from
    }
    sig.emit();  // moved-to handle keeps the subscription alive
    EXPECT_EQ(hits, 1);
  }
  sig.emit();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sig.subscriber_count(), 0u);
}

TEST(Signal, NestedEmissionKeepsMutationGuardArmed) {
  // Re-emitting a signal from inside its own emission is allowed; the
  // mutation guard must stay armed for the rest of the outer emission.
  Signal<int> sig;
  int calls = 0;
  Subscription reentrant = sig.subscribe([&](int depth) {
    ++calls;
    if (depth == 0) sig.emit(1);
  });
  sig.emit(0);
  EXPECT_EQ(calls, 2);
  // After everything unwound, mutation is legal again.
  Subscription late = sig.subscribe([](int) {});
  EXPECT_EQ(sig.subscriber_count(), 2u);
}

TEST(Gate, EmptyApprovesAndAnyVetoWins) {
  Gate<int> gate;
  EXPECT_TRUE(gate.ask(7));
  Subscription even_only = gate.subscribe([](int v) { return v % 2 == 0; });
  Subscription small_only = gate.subscribe([](int v) { return v < 10; });
  EXPECT_TRUE(gate.ask(4));
  EXPECT_FALSE(gate.ask(3));   // first subscriber vetoes
  EXPECT_FALSE(gate.ask(12));  // second subscriber vetoes
  even_only.reset();
  EXPECT_TRUE(gate.ask(3));
}

}  // namespace
}  // namespace hg::core
