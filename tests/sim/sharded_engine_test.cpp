#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "net/fabric.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace hg::sim {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    WorkerPool pool(workers);
    std::vector<int> hits(23, 0);
    // Static assignment: index i only ever runs on worker i % workers, so
    // concurrent increments never touch the same slot.
    pool.run(hits.size(), [&](std::size_t i) { hits[i]++; });
    pool.run(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (int h : hits) EXPECT_EQ(h, 2);
  }
}

TEST(Simulator, RunBeforeIsExclusive) {
  Simulator s(1);
  int ran = 0;
  s.at(SimTime::ms(10), [&] { ran = 1; });
  EXPECT_EQ(s.run_before(SimTime::ms(10)), 0u);
  EXPECT_EQ(ran, 0);
  // The clock still advances to the bound, like run_until.
  EXPECT_EQ(s.now(), SimTime::ms(10));
  EXPECT_EQ(s.run_until(SimTime::ms(10)), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(ShardedEngine, PartitionMapIsContiguousAndBalanced) {
  ShardedEngine e(7, /*node_count=*/103, {.partitions = 4, .workers = 1, .epoch = SimTime::ms(1)});
  std::vector<std::size_t> sizes(4, 0);
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < 103; ++i) {
    const std::uint32_t p = e.partition_of(i);
    ASSERT_LT(p, 4u);
    ASSERT_GE(p, prev);  // contiguous blocks
    prev = p;
    sizes[p]++;
  }
  for (std::size_t n : sizes) EXPECT_TRUE(n == 25 || n == 26);
}

TEST(ShardedEngine, DegeneratePartitioningClampsToSinglePartition) {
  // More partitions than nodes is a degenerate layout: rather than running
  // empty shards, the engine collapses to one partition, which delegates to
  // the plain sequential loop (and is therefore byte-identical to it — see
  // ParallelDeterminism.DegeneratePartitioningMatchesSequentialEngine).
  ShardedEngine e(7, /*node_count=*/3, {.partitions = 16, .workers = 2, .epoch = SimTime::ms(1)});
  EXPECT_EQ(e.partitions(), 1u);
}

TEST(ShardedEngine, WorkerPoolNeverOutnumbersPartitions) {
  // A thread without a partition would only wake at every phase; the pool
  // holds min(workers, partitions) threads, counting the clamp to one
  // partition for a degenerate layout.
  for (const auto& [workers, partitions, expected] :
       {std::tuple<std::size_t, std::uint32_t, std::size_t>{4, 1, 1},
        {4, 2, 2},
        {2, 16, 2},
        {4, 100, 1}}) {
    ShardedEngine::Config config;
    config.partitions = partitions;
    config.workers = workers;
    config.epoch = SimTime::ms(1);
    ShardedEngine e(1, /*node_count=*/64, config);
    EXPECT_EQ(e.workers(), expected) << "W=" << workers << " P=" << partitions;
  }
}

TEST(ShardedEngine, SingleNodePartitionsAreAllowed) {
  // partitions == node_count is legal (every message crosses a boundary).
  ShardedEngine e(7, /*node_count=*/5, {.partitions = 5, .workers = 2, .epoch = SimTime::ms(1)});
  EXPECT_EQ(e.partitions(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(e.partition_of(i), i);
}

TEST(ShardedEngine, MakeRngMatchesSequentialSimulator) {
  ShardedEngine e(2009, 10, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
  Simulator s(2009);
  for (std::uint64_t tag : {7ull, 0x41535347ull, 0x4348524eull}) {
    Rng a = e.make_rng(tag);
    Rng b = s.make_rng(tag);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next(), b.next());
  }
}

TEST(ShardedEngine, ControlTasksRunBeforeLocalEventsAtSameTime) {
  ShardedEngine e(1, 8, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
  std::vector<std::string> order;
  e.sim_of(0).at(SimTime::ms(5), [&] { order.push_back("event"); });
  e.schedule_control(SimTime::ms(5), [&] { order.push_back("control"); });
  e.run_until(SimTime::ms(6));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control");
  EXPECT_EQ(order[1], "event");
}

TEST(ShardedEngine, ControlTasksAtEqualTimesKeepSchedulingOrder) {
  ShardedEngine e(1, 4, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
  std::vector<int> order;
  e.schedule_control(SimTime::ms(3), [&] { order.push_back(1); });
  e.schedule_control(SimTime::ms(3), [&] {
    order.push_back(2);
    // A control task may chain another at the same timestamp.
    e.schedule_control(SimTime::ms(3), [&] { order.push_back(3); });
  });
  e.run_until(SimTime::ms(4));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardedEngine, CountsEventsAcrossPartitions) {
  ShardedEngine e(1, 6, {.partitions = 3, .workers = 1, .epoch = SimTime::ms(1)});
  for (std::uint32_t p = 0; p < 3; ++p) {
    e.sim_of(p).at(SimTime::ms(1 + p), [] {});
  }
  const std::uint64_t ran = e.run_until(SimTime::ms(10));
  EXPECT_EQ(ran, 3u);
  EXPECT_EQ(e.events_executed(), 3u);
}

// The acceptance-critical property: cross-partition messages with *colliding
// arrival timestamps* are imported in an order that depends only on the seed
// and partition count — never on how many workers drive the run.
std::vector<std::uint32_t> arrival_order(std::size_t workers) {
  constexpr std::size_t kNodes = 12;
  ShardedEngine engine(99, kNodes, {.partitions = 4, .workers = workers, .epoch = SimTime::ms(10)});
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)));
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [&order, i](const net::Datagram&) { order.push_back(i); });
  }
  // Every node sends to node 0 at t=0 with constant latency: all arrivals
  // collide at exactly t=10ms, from three different source partitions.
  for (std::uint32_t i = 3; i < kNodes; ++i) {
    fabric.send(NodeId{i}, NodeId{0}, net::MsgClass::kPropose,
                net::BufferRef::copy_of(std::vector<std::uint8_t>(8, 0x42)));
  }
  engine.run_until(SimTime::ms(20));
  return order;
}

TEST(ShardedEngine, CrossPartitionCollidingArrivalsOrderIndependentOfWorkers) {
  const auto base = arrival_order(1);
  EXPECT_EQ(base.size(), 9u);
  for (std::size_t workers : {2u, 3u, 8u}) {
    EXPECT_EQ(arrival_order(workers), base) << "workers=" << workers;
  }
}

TEST(ShardedEngineDeathTest, MultiPartitionRequiresPositiveEpoch) {
  EXPECT_DEATH(ShardedEngine(1, 8, {.partitions = 2, .workers = 1, .epoch = SimTime::zero()}),
               "epoch");
}

// --- adaptive epoch widening ------------------------------------------------

TEST(ShardedEngine, EpochWideningSkipsQuiescentGaps) {
  // Two events 100 ms and 150 ms out, 1 ms epochs: a literal barrier loop
  // would grind ~200 empty epochs; widening fast-forwards to each event.
  // The barrier schedule is a function of the layout alone, so the counters
  // must not move with the worker count.
  std::uint64_t base_run = 0, base_skipped = 0;
  for (std::size_t workers : {1u, 2u, 4u}) {
    ShardedEngine e(7, 8, {.partitions = 2, .workers = workers, .epoch = SimTime::ms(1)});
    std::vector<SimTime> fired;
    e.sim_of(0).at(SimTime::ms(100), [&] { fired.push_back(e.sim_of(0).now()); });
    e.sim_of(1).at(SimTime::ms(150), [&] { fired.push_back(e.sim_of(1).now()); });
    e.run_until(SimTime::ms(200));
    ASSERT_EQ(fired.size(), 2u) << "workers=" << workers;
    EXPECT_EQ(fired[0], SimTime::ms(100));
    EXPECT_EQ(fired[1], SimTime::ms(150));
    EXPECT_GT(e.epochs_skipped(), 0u);
    EXPECT_LT(e.epochs_run(), 10u);  // vs ~200 without widening
    if (workers == 1) {
      base_run = e.epochs_run();
      base_skipped = e.epochs_skipped();
    } else {
      EXPECT_EQ(e.epochs_run(), base_run) << "workers=" << workers;
      EXPECT_EQ(e.epochs_skipped(), base_skipped) << "workers=" << workers;
    }
  }
}

TEST(ShardedEngine, EpochWideningOffGrindsEveryEpoch) {
  ShardedEngine::Config cfg{.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)};
  cfg.epoch_widening = false;
  ShardedEngine e(7, 8, std::move(cfg));
  int fired = 0;
  e.sim_of(0).at(SimTime::ms(100), [&] { ++fired; });
  e.run_until(SimTime::ms(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.epochs_skipped(), 0u);
  EXPECT_GE(e.epochs_run(), 200u);
}

TEST(ShardedEngine, WideningNeverJumpsScheduledControlTasks) {
  // An otherwise-empty engine: widening wants to jump straight to `until`,
  // but a control task at 50 ms caps the jump — it must run at exactly its
  // scheduled barrier, and an event scheduled *by* it must still run too.
  ShardedEngine e(7, 8, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
  std::vector<SimTime> control_at;
  std::vector<SimTime> event_at;
  e.schedule_control(SimTime::ms(50), [&] {
    control_at.push_back(e.now());
    e.sim_of(1).at(SimTime::ms(120), [&] { event_at.push_back(e.sim_of(1).now()); });
  });
  e.run_until(SimTime::ms(200));
  ASSERT_EQ(control_at.size(), 1u);
  EXPECT_EQ(control_at[0], SimTime::ms(50));
  ASSERT_EQ(event_at.size(), 1u);
  EXPECT_EQ(event_at[0], SimTime::ms(120));
  EXPECT_GT(e.epochs_skipped(), 0u);
}

TEST(ShardedEngineDeathTest, WideningPastAControlTaskIsFatal) {
  // The guard behind the widening rule: jumping a barrier past a scheduled
  // control task (retransmit snapshots, churn crashes...) would silently
  // reorder the run. The engine's own widen targets always respect the cap;
  // this pins the assertion that would catch a future regression.
  ShardedEngine e(1, 8, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
  e.schedule_control(SimTime::ms(5), [] {});
  EXPECT_DEATH(e.assert_widen_safe(SimTime::ms(6)), "control");
}

// --- cross-partition exchange -------------------------------------------------

// One delivery as the receiver saw it: sender, payload length, and the first
// and last payload bytes.
using Delivery = std::tuple<std::uint32_t, std::size_t, std::uint8_t, std::uint8_t>;

struct ExchangeRun {
  std::vector<std::vector<Delivery>> sent;       // per receiver, in send order
  std::vector<std::vector<Delivery>> delivered;  // per receiver, in delivery order
};

// `len` bytes of `first`, ending in `last`.
std::vector<std::uint8_t> payload_of(std::size_t len, std::uint8_t first, std::uint8_t last) {
  std::vector<std::uint8_t> payload(len, first);
  payload.back() = last;
  return payload;
}

// Two bursts of cross-partition traffic among 24 nodes: a permutation with a
// distinct payload size per sender (a wrong offset or a truncated copy shows
// up in the length or the edge bytes), plus a hub that every other node hits
// at the same instant (its arrivals must tie-break alike at every layout).
ExchangeRun exchange_run(std::uint32_t partitions, std::size_t workers) {
  constexpr std::uint32_t kNodes = 24;
  ShardedEngine engine(123, kNodes,
                       {.partitions = partitions, .workers = workers, .epoch = SimTime::ms(5)});
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(SimTime::ms(10)));
  ExchangeRun run;
  run.sent.resize(kNodes);
  // A node's deliveries run on its partition's worker, so each slot is
  // written by one thread only.
  run.delivered.resize(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    fabric.register_node(NodeId{i}, BitRate::unlimited(), [&run, i](const net::Datagram& d) {
      run.delivered[i].emplace_back(d.src.value(), d.bytes.size(), d.bytes.data()[0],
                                    d.bytes.data()[d.bytes.size() - 1]);
    });
  }
  const auto send = [&](std::uint32_t src, std::uint32_t dst, std::vector<std::uint8_t> payload) {
    run.sent[dst].emplace_back(src, payload.size(), payload.front(), payload.back());
    fabric.send(NodeId{src}, NodeId{dst}, net::MsgClass::kServe, net::BufferRef::copy_of(payload));
  };
  for (std::uint32_t burst = 0; burst < 2; ++burst) {
    const std::uint32_t hub = 5 + 8 * burst;
    const auto last = static_cast<std::uint8_t>(0xF0 + burst);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const auto first = static_cast<std::uint8_t>(i + burst);
      send(i, (i * 7 + 1 + burst) % kNodes, payload_of(64 + 97 * i % 1500 + 1, first, last));
      if (i != hub) send(i, hub, payload_of(32 + i, static_cast<std::uint8_t>(0x80 + i), last));
    }
    engine.run_until(engine.now() + SimTime::ms(25));
  }
  return run;
}

TEST(ShardedEngine, ExchangeDeliversWhatWasSentInOneOrderAtEveryLayout) {
  const ExchangeRun base = exchange_run(/*partitions=*/4, /*workers=*/1);
  for (std::size_t dst = 0; dst < base.sent.size(); ++dst) {
    std::vector<Delivery> sent = base.sent[dst];
    std::vector<Delivery> got = base.delivered[dst];
    std::sort(sent.begin(), sent.end());
    std::sort(got.begin(), got.end());
    EXPECT_FALSE(sent.empty()) << "node " << dst;
    EXPECT_EQ(got, sent) << "node " << dst;
  }
  // 24 partitions put one node in each: every datagram crosses a boundary.
  for (const std::uint32_t partitions : {2u, 4u, 24u}) {
    for (const std::size_t workers : {1u, 4u}) {
      EXPECT_EQ(exchange_run(partitions, workers).delivered, base.delivered)
          << "partitions=" << partitions << " workers=" << workers;
    }
  }
}

TEST(ShardedEngine, OversizedPayloadSurvivesExchange) {
  // A payload beyond the buffer pool's largest size class (256 KiB) takes
  // the unpooled allocation path on import; contents must arrive intact.
  constexpr std::size_t kBig = 300 * 1024;
  ShardedEngine engine(5, 4, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(SimTime::ms(2)));
  std::vector<std::uint8_t> got;
  for (std::uint32_t i = 0; i < 4; ++i) {
    fabric.register_node(NodeId{i}, BitRate::unlimited(), [&got](const net::Datagram& d) {
      got = d.bytes.to_vector();
    });
  }
  std::vector<std::uint8_t> payload(kBig);
  for (std::size_t i = 0; i < kBig; ++i) payload[i] = static_cast<std::uint8_t>(i * 31 >> 3);
  fabric.send(NodeId{0}, NodeId{3}, net::MsgClass::kServe, net::BufferRef::copy_of(payload));
  engine.run_until(SimTime::ms(10));
  EXPECT_EQ(got, payload);
}

TEST(ShardedEngine, SplitRunKeepsDatagramsSentAtTheBound) {
  // A cross-partition datagram that goes on the wire exactly at a run_until
  // bound is emitted by the inclusive tail; it must reach its destination
  // whether or not the run is split at that bound.
  for (const bool split : {false, true}) {
    ShardedEngine engine(3, 4, {.partitions = 2, .workers = 1, .epoch = SimTime::ms(1)});
    net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(SimTime::ms(2)));
    std::vector<SimTime> arrivals;
    for (std::uint32_t i = 0; i < 4; ++i) {
      fabric.register_node(NodeId{i}, BitRate::unlimited(), [&](const net::Datagram&) {
        arrivals.push_back(engine.sim_of_node(3).now());
      });
    }
    engine.sim_of_node(0).at(SimTime::ms(10), [&fabric] {
      fabric.send(NodeId{0}, NodeId{3}, net::MsgClass::kPropose,
                  net::BufferRef::copy_of(std::vector<std::uint8_t>(8, 0x42)));
    });
    if (split) engine.run_until(SimTime::ms(10));
    engine.run_until(SimTime::ms(20));
    ASSERT_EQ(arrivals.size(), 1u) << "split=" << split;
    EXPECT_EQ(arrivals[0], SimTime::ms(12)) << "split=" << split;
    EXPECT_EQ(fabric.datagrams_delivered(), 1u) << "split=" << split;
  }
}

}  // namespace
}  // namespace hg::sim
