#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include "sim/sharded_engine.hpp"

namespace hg::net {
namespace {

BufferRef make_bytes(std::size_t n) {
  return BufferRef::copy_of(std::vector<std::uint8_t>(n, 0x55));
}

struct Harness {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  NetworkFabric fabric;
  std::vector<std::vector<Datagram>> received;

  explicit Harness(std::size_t nodes, double loss = 0.0,
                   sim::SimTime latency = sim::SimTime::ms(10), std::uint32_t partitions = 1)
      : engine(42, nodes, {.partitions = partitions, .workers = partitions, .epoch = latency}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<ConstantLatency>(latency),
               FabricConfig{.loss_rate = loss}) {
    received.resize(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      fabric.register_node(id, BitRate::unlimited(),
                           [this, i](const Datagram& d) { received[i].push_back(d); });
    }
  }
};

TEST(Fabric, DeliversWithLatency) {
  Harness h(2);
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose, make_bytes(100));
  h.sim.run_until(sim::SimTime::ms(9));
  EXPECT_TRUE(h.received[1].empty());
  h.sim.run_until(sim::SimTime::ms(11));
  ASSERT_EQ(h.received[1].size(), 1u);
  EXPECT_EQ(h.received[1][0].src, NodeId{0});
  EXPECT_EQ(h.received[1][0].cls, MsgClass::kPropose);
}

TEST(Fabric, MetersSentAndReceived) {
  Harness h(2);
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kServe, make_bytes(1316));
  h.sim.run_until(sim::SimTime::sec(1));
  EXPECT_EQ(h.fabric.meter(NodeId{0}).sent(MsgClass::kServe).bytes,
            1316 + kUdpIpOverheadBytes);
  EXPECT_EQ(h.fabric.meter(NodeId{0}).sent(MsgClass::kServe).msgs, 1u);
  EXPECT_EQ(h.fabric.meter(NodeId{1}).received(MsgClass::kServe).bytes,
            1316 + kUdpIpOverheadBytes);
}

TEST(Fabric, LossDropsDatagrams) {
  Harness h(2, /*loss=*/1.0);
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose, make_bytes(100));
  h.sim.run_until(sim::SimTime::sec(1));
  EXPECT_TRUE(h.received[1].empty());
  EXPECT_EQ(h.fabric.datagrams_lost(), 1u);
}

TEST(Fabric, PartialLossRate) {
  Harness h(2, /*loss=*/0.2);
  for (int i = 0; i < 5000; ++i) {
    h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose, make_bytes(10));
  }
  h.sim.run_until(sim::SimTime::sec(10));
  const double delivered = static_cast<double>(h.received[1].size());
  EXPECT_NEAR(delivered / 5000.0, 0.8, 0.03);
}

TEST(Fabric, DeadSenderSendsNothing) {
  Harness h(2);
  h.fabric.kill(NodeId{0});
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose, make_bytes(10));
  h.sim.run_until(sim::SimTime::sec(1));
  EXPECT_TRUE(h.received[1].empty());
}

TEST(Fabric, DeadReceiverDropsInFlight) {
  Harness h(2);
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose, make_bytes(10));
  // Kill node 1 while the datagram is still in flight (latency 10 ms).
  h.sim.run_until(sim::SimTime::ms(5));
  h.fabric.kill(NodeId{1});
  h.sim.run_until(sim::SimTime::sec(1));
  EXPECT_TRUE(h.received[1].empty());
}

// A send to an already-crashed node is dropped at the sender, after the
// loss and latency draws, at every partition count: it counts in
// filtered_dead and never becomes a delivery event.
TEST(Fabric, CrashedDestinationIsDroppedAtTheSender) {
  for (const std::uint32_t partitions : {1u, 2u}) {
    // At two partitions (on two workers) 0 -> 1 stays on the sender's
    // partition and 0 -> 3 crosses to the other one.
    Harness h(4, /*loss=*/0.0, sim::SimTime::ms(10), partitions);
    h.fabric.kill(NodeId{1});
    h.fabric.kill(NodeId{3});
    h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose, make_bytes(10));
    h.fabric.send(NodeId{0}, NodeId{3}, MsgClass::kPropose, make_bytes(10));
    h.engine.run_until(sim::SimTime::sec(1));
    // Only the upload link's two transmit completions ran.
    EXPECT_EQ(h.engine.events_executed(), 2u) << "partitions=" << partitions;
    EXPECT_EQ(h.fabric.superstep_counters().filtered_dead, 2u) << "partitions=" << partitions;
    EXPECT_EQ(h.fabric.datagrams_delivered(), 0u) << "partitions=" << partitions;
    EXPECT_EQ(h.fabric.meter(NodeId{1}).total_received_bytes(), 0);
    EXPECT_EQ(h.fabric.meter(NodeId{3}).total_received_bytes(), 0);
  }
}

TEST(Fabric, UploadCapacitySerializesTraffic) {
  sim::ShardedEngine engine(7, 2, {});
  sim::Simulator& s = engine.sim_of(0);
  NetworkFabric fabric(engine, std::make_unique<ConstantLatency>(sim::SimTime::zero()));
  std::vector<sim::SimTime> arrival;
  // 1000 bps sender: each 125-byte wire datagram takes 1 s to push out.
  fabric.register_node(NodeId{0}, BitRate::bps(1000), nullptr);
  fabric.register_node(NodeId{1}, BitRate::unlimited(),
                       [&](const Datagram&) { arrival.push_back(s.now()); });
  fabric.send(NodeId{0}, NodeId{1}, MsgClass::kServe, make_bytes(97));
  fabric.send(NodeId{0}, NodeId{1}, MsgClass::kServe, make_bytes(97));
  s.run_until(sim::SimTime::sec(10));
  ASSERT_EQ(arrival.size(), 2u);
  EXPECT_EQ(arrival[0], sim::SimTime::sec(1));
  EXPECT_EQ(arrival[1], sim::SimTime::sec(2));
}

TEST(Fabric, SlicedBatchMetersLikeIndividualDatagrams) {
  // The batched-serve path sends zero-copy slices of one pooled buffer;
  // each slice must meter as its own datagram (msgs, bytes, UDP overhead).
  Harness h(2);
  const BufferRef batch = BufferRef::copy_of(std::vector<std::uint8_t>(150, 0x77));
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kServe, batch.slice(0, 100));
  h.fabric.send(NodeId{0}, NodeId{1}, MsgClass::kServe, batch.slice(100, 50));
  h.sim.run_until(sim::SimTime::sec(1));
  EXPECT_EQ(h.fabric.meter(NodeId{0}).sent(MsgClass::kServe).msgs, 2u);
  EXPECT_EQ(h.fabric.meter(NodeId{0}).sent(MsgClass::kServe).bytes,
            100 + 50 + 2 * kUdpIpOverheadBytes);
  ASSERT_EQ(h.received[1].size(), 2u);
  EXPECT_EQ(h.received[1][0].bytes.size(), 100u);
  EXPECT_EQ(h.received[1][1].bytes.size(), 50u);
}

TEST(FabricDeathTest, RegisterNodeEnforcesConsecutiveIds) {
  sim::ShardedEngine engine(1, 3, {});
  NetworkFabric fabric(engine, std::make_unique<ConstantLatency>(sim::SimTime::ms(1)));
  fabric.register_node(NodeId{0}, BitRate::unlimited(), nullptr);
  // Skipping an id breaks entry()'s index-by-id contract: must abort loudly,
  // not corrupt the entry table.
  EXPECT_DEATH(fabric.register_node(NodeId{2}, BitRate::unlimited(), nullptr),
               "consecutive ids");
  // Re-registering an existing id is equally fatal.
  EXPECT_DEATH(fabric.register_node(NodeId{0}, BitRate::unlimited(), nullptr),
               "consecutive ids");
}

TEST(FabricDeathTest, SendToUnregisteredNodeAborts) {
  Harness h(4);
  // Rejected at the call that is wrong, before it is metered or queued.
  EXPECT_DEATH(h.fabric.send(NodeId{0}, NodeId{999}, MsgClass::kPropose, make_bytes(10)),
               "send to node 999, which is not registered");
}

TEST(Fabric, PlanetLabLatencyIsStablePerPair) {
  sim::Simulator s(3);
  auto rng = s.make_rng(1);
  PlanetLabLatency lat({}, s.make_rng(2));
  Rng packet_rng = s.make_rng(9);
  const auto a1 = lat.sample(NodeId{1}, NodeId{2}, packet_rng);
  const auto a2 = lat.sample(NodeId{1}, NodeId{2}, packet_rng);
  const auto b = lat.sample(NodeId{2}, NodeId{1}, packet_rng);
  (void)rng;
  // Same pair: within jitter (5 ms) of each other; symmetric base.
  EXPECT_LT((a1 - a2).as_us() < 0 ? (a2 - a1).as_us() : (a1 - a2).as_us(), 5000);
  EXPECT_LT((a1 - b).as_us() < 0 ? (b - a1).as_us() : (a1 - b).as_us(), 5000);
}

}  // namespace
}  // namespace hg::net
