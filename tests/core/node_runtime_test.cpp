#include "core/node_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aggregation/aggregation_module.hpp"
#include "fec/window_codec.hpp"
#include "gossip/gossip_module.hpp"
#include "stream/fec_module.hpp"
#include "stream/player.hpp"
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
      : Swarm(std::vector<Mode>(n, mode), cap) {}

  // Node i runs modes[i].
  explicit Swarm(const std::vector<Mode>& modes, BitRate cap = BitRate::kbps(1000))
      : engine(17, modes.size(), {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10))),
        directory(engine, membership::DetectionConfig{}) {
    const auto n = static_cast<std::uint32_t>(modes.size());
    for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      NodeConfig cfg;
      cfg.mode = modes[i];
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
  const NodeRuntime& node = *s.nodes[0];
  ASSERT_NE(node.find_module<gossip::GossipModule>(), nullptr);
  EXPECT_EQ(node.find_module<aggregation::AggregationModule>(), nullptr);
  EXPECT_EQ(node.find_module<stream::FecModule>(), nullptr);
  EXPECT_DOUBLE_EQ(s.nodes[0]->module<gossip::GossipModule>().policy().current_target(), 7.0);
}

TEST(NodeRuntime, HeapPresetRunsAggregation) {
  Swarm s(10, Mode::kHeap);
  ASSERT_NE(s.nodes[0]->find_module<aggregation::AggregationModule>(), nullptr);
  EXPECT_EQ(s.nodes[0]->find_module<stream::FecModule>(), nullptr);
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
  // all through the one per-node tag switch.
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

TEST(NodeRuntime, StandardNodeCountsAggregationRecordsAsUnknown) {
  // The counting contract behind the core.* counters: a node without an
  // aggregator (the standard-mode source of every HEAP run) drops its HEAP
  // peers' capability records as unknown tags, and only datagrams a module
  // takes count as dispatched.
  Swarm s({Mode::kHeap, Mode::kStandard});
  s.nodes[0]->publish(make_event(0, 0));  // gossip traffic in both directions
  s.sim.run_until(sim::SimTime::sec(5));
  for (auto& node : s.nodes) node->stop();
  s.sim.run_until(sim::SimTime::sec(6));  // in-flight datagrams land

  const auto records_sent =
      s.nodes[0]->module<aggregation::AggregationModule>().aggregator().stats().gossips_sent;
  EXPECT_GT(records_sent, 0u);
  EXPECT_EQ(s.nodes[1]->stats().unknown_tag_datagrams, records_sent);
  const net::TrafficMeter& meter = s.fabric.meter(NodeId{1});
  EXPECT_EQ(meter.received(net::MsgClass::kAggregation).msgs, records_sent);
  const std::uint64_t gossip_received = meter.received(net::MsgClass::kPropose).msgs +
                                        meter.received(net::MsgClass::kRequest).msgs +
                                        meter.received(net::MsgClass::kServe).msgs;
  EXPECT_GT(gossip_received, 0u);
  EXPECT_EQ(s.nodes[1]->stats().datagrams_dispatched, gossip_received);
  EXPECT_EQ(s.nodes[0]->stats().unknown_tag_datagrams, 0u);
  EXPECT_GT(s.nodes[0]->stats().datagrams_dispatched, 0u);
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
  // A delivered event reaches the receiver's two observers once each, the
  // player before the decoder: when the decoder completes the window on its
  // k-th packet, the player has already counted that packet.
  sim::ShardedEngine engine(19, 2, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)));
  membership::Directory directory(engine, membership::DetectionConfig{});
  for (std::uint32_t i = 0; i < 2; ++i) directory.add_node(NodeId{i});

  stream::StreamConfig stream_cfg;
  stream_cfg.data_per_window = 4;
  stream_cfg.parity_per_window = 2;
  stream_cfg.packet_bytes = 64;
  stream_cfg.real_payloads = true;
  const fec::WindowCodec codec({.data_per_window = stream_cfg.data_per_window,
                                .parity_per_window = stream_cfg.parity_per_window,
                                .packet_bytes = stream_cfg.packet_bytes});

  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::uint32_t i = 0; i < 2; ++i) {
    NodeConfig cfg;
    cfg.mode = Mode::kStandard;
    cfg.gossip.packets_per_window = static_cast<std::uint32_t>(stream_cfg.window_packets());
    nodes.push_back(NodeRuntime::make(sim, fabric, directory, NodeId{i}, cfg));
  }
  stream::Player player(sim, stream_cfg, 1);
  nodes[1]->attach_receiver(player, &codec);
  std::vector<std::uint64_t> player_count_at_decode;
  nodes[1]->module<stream::FecModule>().set_window_sink(
      [&](std::uint32_t w, std::span<const std::span<const std::uint8_t>>) {
        EXPECT_TRUE(player.decodable_by(w, sim.now()));
        player_count_at_decode.push_back(player.packets_received());
      });
  for (auto& n : nodes) n->attach(BitRate::unlimited());
  stream::StreamSource source(
      sim, stream_cfg, [&nodes](gossip::Event e) { nodes[0]->publish(std::move(e)); }, &codec);
  source.start(sim::SimTime::ms(100), 1);
  for (auto& n : nodes) n->start();
  sim.run_until(sim::SimTime::sec(5));

  const auto delivered = nodes[1]->module<gossip::GossipModule>().engine().stats().events_delivered;
  EXPECT_GE(delivered, stream_cfg.data_per_window);
  EXPECT_EQ(player.packets_received(), delivered);  // every delivery reached the player once
  EXPECT_EQ(player.duplicates(), 0u);
  EXPECT_TRUE(nodes[1]->module<stream::FecModule>().window_decoded(0));
  ASSERT_EQ(player_count_at_decode.size(), 1u);  // the decoder completed the window once...
  EXPECT_EQ(player_count_at_decode[0], stream_cfg.data_per_window);  // ...after the player
}

TEST(NodeRuntime, CustomStackMultiplexesGossipAggregationAndFecOnOnePort) {
  // HEAP receivers with a player and an online decoder: gossip, aggregation
  // and FEC share each node's port, and no datagram goes unclaimed.
  constexpr std::size_t kN = 6;
  sim::ShardedEngine engine(31, kN, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)));
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

  // Per node, the decoded windows whose data packets are the source's bytes
  // and which the node's player already counted as decodable: a delivery
  // reaches the player before the decoder.
  std::vector<int> windows_intact(kN, 0);
  auto count_intact = [&](std::size_t node, const stream::Player& player) {
    return [&windows_intact, &stream_cfg, &sim, p = &player, node](
               std::uint32_t w, std::span<const std::span<const std::uint8_t>> data) {
      bool intact = p->decodable_by(w, sim.now());
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
    cfg.mode = Mode::kHeap;
    cfg.capability = BitRate::kbps(500 + 100 * i);
    cfg.gossip.packets_per_window = static_cast<std::uint32_t>(stream_cfg.window_packets());
    players.push_back(std::make_unique<stream::Player>(sim, stream_cfg, 1));
    auto rt = NodeRuntime::make(sim, fabric, directory, NodeId{i}, cfg);
    rt->attach_receiver(*players.back(), &codec);
    rt->module<stream::FecModule>().set_window_sink(count_intact(i, *players.back()));
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
    // The smart player's decode cancelled the window in the gossip engine.
    EXPECT_EQ(nodes[i]->module<gossip::GossipModule>().engine().stats().windows_cancelled, 1u)
        << i;
    const auto& agg = nodes[i]->module<aggregation::AggregationModule>().aggregator();
    EXPECT_GT(agg.known_origins(), 0u) << i;
    EXPECT_GT(agg.average_capability_bps(), 0.0) << i;
    EXPECT_GT(nodes[i]->stats().datagrams_dispatched, 0u) << i;
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
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)));
  membership::Directory directory(engine, membership::DetectionConfig{});
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) directory.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < kN; ++i) {
    NodeConfig cfg;
    cfg.mode = Mode::kHeap;
    // Node 5 is a freerider: true capacity 1 Mbps, declares 128 kbps.
    cfg.capability = (i == 5) ? BitRate::kbps(128) : BitRate::kbps(1000);
    nodes.push_back(NodeRuntime::make(sim, fabric, directory, NodeId{i}, cfg));
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

}  // namespace
}  // namespace hg::core
