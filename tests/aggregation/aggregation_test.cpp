#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "aggregation/freshness_aggregator.hpp"
#include "common/rng.hpp"

namespace hg::aggregation {
namespace {

using gossip::CapabilityRecord;

struct AggSwarm {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  membership::Directory directory;
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<FreshnessAggregator>> aggs;

  AggSwarm(const std::vector<double>& capabilities_kbps, AggregationConfig cfg = {},
           std::uint64_t seed = 5)
      : engine(seed, capabilities_kbps.size(), {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(20))),
        directory(engine, membership::DetectionConfig{}) {
    const auto n = capabilities_kbps.size();
    for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId id{i};
      views.push_back(directory.make_view(id));
      aggs.push_back(std::make_unique<FreshnessAggregator>(
          sim, fabric, *views.back(), id, BitRate::kbps(capabilities_kbps[i]), cfg));
      fabric.register_node(id, BitRate::unlimited(),
                           [a = aggs.back().get()](const net::Datagram& d) {
                             a->on_datagram(d);
                           });
    }
    for (auto& a : aggs) a->start();
  }
};

std::vector<double> ms691_like(std::size_t n) {
  // 5% 3072, 10% 1024, 85% 512 (paper ms-691).
  std::vector<double> caps;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n / 20) {
      caps.push_back(3072);
    } else if (i < n / 20 + n / 10) {
      caps.push_back(1024);
    } else {
      caps.push_back(512);
    }
  }
  return caps;
}

TEST(FreshnessAggregator, ColdStartReportsOwnCapability) {
  AggSwarm s({512, 1024, 2048});
  EXPECT_DOUBLE_EQ(s.aggs[0]->average_capability_bps(), 512'000.0);
  EXPECT_DOUBLE_EQ(s.aggs[2]->average_capability_bps(), 2'048'000.0);
}

TEST(FreshnessAggregator, ConvergesToTrueAverage) {
  const auto caps = ms691_like(100);
  double truth = 0;
  for (double c : caps) truth += c * 1000.0;
  truth /= static_cast<double>(caps.size());

  AggSwarm s(caps);
  s.sim.run_until(sim::SimTime::sec(20));
  for (const auto& a : s.aggs) {
    EXPECT_NEAR(a->average_capability_bps(), truth, truth * 0.10);
    EXPECT_EQ(a->stats().malformed, 0u);  // a valid run rejects nothing
  }
}

TEST(FreshnessAggregator, EstimateErrorShrinksOverTime) {
  const auto caps = ms691_like(100);
  double truth = 0;
  for (double c : caps) truth += c * 1000.0;
  truth /= static_cast<double>(caps.size());

  AggSwarm s(caps);
  auto mean_err = [&]() {
    double err = 0;
    for (const auto& a : s.aggs) {
      err += std::abs(a->average_capability_bps() - truth) / truth;
    }
    return err / static_cast<double>(s.aggs.size());
  };
  s.sim.run_until(sim::SimTime::sec(1));
  const double early = mean_err();
  s.sim.run_until(sim::SimTime::sec(30));
  const double late = mean_err();
  EXPECT_LT(late, early);
  EXPECT_LT(late, 0.05);
}

TEST(FreshnessAggregator, TracksCapabilityChange) {
  AggSwarm s({1000, 1000, 1000, 1000});
  s.sim.run_until(sim::SimTime::sec(10));
  EXPECT_NEAR(s.aggs[0]->average_capability_bps(), 1'000'000, 1);
  // Node 3 drops to 200 kbps; the estimate must follow.
  s.aggs[3]->set_own_capability(BitRate::kbps(200));
  s.sim.run_until(sim::SimTime::sec(40));
  const double expect = (3 * 1'000'000.0 + 200'000.0) / 4.0;
  for (const auto& a : s.aggs) {
    EXPECT_NEAR(a->average_capability_bps(), expect, expect * 0.05);
  }
}

TEST(FreshnessAggregator, ExpiryForgetsCrashedNodes) {
  AggregationConfig cfg;
  cfg.record_expiry = sim::SimTime::sec(5);
  AggSwarm s({400, 400, 400, 4000}, cfg);
  s.sim.run_until(sim::SimTime::sec(10));
  // All nodes should see avg = (3*400+4000)/4 = 1300 kbps.
  EXPECT_NEAR(s.aggs[0]->average_capability_bps(), 1'300'000, 1'300'000 * 0.05);

  // Crash the rich node: stop its gossip and its reception.
  s.aggs[3]->stop();
  s.fabric.kill(NodeId{3});
  s.directory.kill(NodeId{3});
  s.sim.run_until(sim::SimTime::sec(40));
  // Its record expired everywhere: estimate returns to 400 kbps.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(s.aggs[i]->average_capability_bps(), 400'000, 400'000 * 0.05) << i;
  }
}

TEST(FreshnessAggregator, GossipCostIsMarginal) {
  AggSwarm s(ms691_like(50));
  s.sim.run_until(sim::SimTime::sec(10));
  // Paper: "costing around 1 KB/s ... completely marginal".
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto& meter = s.fabric.meter(NodeId{i});
    const double bytes_per_sec =
        static_cast<double>(meter.sent(net::MsgClass::kAggregation).bytes) / 10.0;
    EXPECT_LT(bytes_per_sec, 1500.0) << i;
  }
}

// One aggregator (node 0) among `n` registered nodes that only listen. The
// test fills node 0's table by handing it datagrams directly; every round
// node 0 runs lands, decoded, in `sent`. Zero latency and one partition
// deliver a round's datagram within the run_until that fires it.
struct RoundProbe {
  static constexpr std::int64_t kOwnBps = 700'000;

  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  membership::Directory directory;
  std::unique_ptr<membership::LocalView> view;
  std::unique_ptr<FreshnessAggregator> agg;
  std::vector<gossip::AggregationMsg> sent;
  AggregationConfig cfg;

  explicit RoundProbe(AggregationConfig config, std::uint32_t n = 48, std::uint64_t seed = 7)
      : engine(seed, n, {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::zero())),
        directory(engine, membership::DetectionConfig{}),
        cfg(config) {
    for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
    view = directory.make_view(NodeId{0});
    agg = std::make_unique<FreshnessAggregator>(sim, fabric, *view, NodeId{0},
                                                BitRate::bps(kOwnBps), cfg);
    fabric.register_node(NodeId{0}, BitRate::unlimited(),
                         [this](const net::Datagram& d) { agg->on_datagram(d); });
    for (std::uint32_t i = 1; i < n; ++i) {
      fabric.register_node(NodeId{i}, BitRate::unlimited(), [this](const net::Datagram& d) {
        auto msg = gossip::decode_aggregation(d.bytes);
        ASSERT_TRUE(msg.has_value());
        sent.push_back(std::move(*msg));
      });
    }
    agg->start();
  }

  // Merges `records` as if node `from` had just gossiped them.
  void receive(std::vector<CapabilityRecord> records, NodeId from = NodeId{1}) {
    agg->on_datagram(net::Datagram{
        from, NodeId{0}, net::MsgClass::kAggregation, 0,
        gossip::encode(gossip::AggregationMsg{from, std::move(records)}), {}});
  }

  // Runs one period, which fires exactly one round, and returns the records
  // it sent after checking its own record leads, stamped at the round.
  std::vector<CapabilityRecord> round() {
    const sim::SimTime before = sim.now();
    const std::size_t already = sent.size();
    sim.run_until(before + cfg.period);
    EXPECT_EQ(sent.size(), already + 1);
    if (sent.size() != already + 1) return {};
    std::vector<CapabilityRecord> records = sent.back().records;
    EXPECT_EQ(sent.back().sender, NodeId{0});
    EXPECT_FALSE(records.empty());
    if (records.empty()) return {};
    EXPECT_EQ(records.front().origin, NodeId{0});
    EXPECT_EQ(records.front().capability_bps, kOwnBps);
    EXPECT_GT(records.front().measured_at, before);
    EXPECT_LE(records.front().measured_at, sim.now());
    records.erase(records.begin());
    return records;
  }
};

CapabilityRecord rec(std::uint32_t origin, std::int64_t stamp_ms) {
  return {NodeId{origin}, 1'000'000 + origin, sim::SimTime::ms(stamp_ms)};
}

std::vector<std::uint32_t> origins_of(const std::vector<CapabilityRecord>& records) {
  std::vector<std::uint32_t> out;
  for (const CapabilityRecord& r : records) out.push_back(r.origin.value());
  return out;
}

// Records are stamped in the past of the node that merges them.
constexpr sim::SimTime kFeedAt = sim::SimTime::sec(10.0);

TEST(FreshnessAggregatorRound, SmallTableGoesOutWholeInOriginOrder) {
  AggregationConfig cfg;  // 10 records per gossip: own + 9
  RoundProbe p(cfg);
  p.sim.run_until(kFeedAt);
  EXPECT_TRUE(p.round().empty());  // a node that knows nobody sends itself alone

  p.receive({rec(7, 100), rec(3, 900), rec(5, 400)});
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{3, 5, 7}));

  // Exactly k - 1 = 9 records still go out unsorted, in origin order.
  p.receive({rec(12, 50), rec(9, 3000), rec(1, 2000), rec(20, 10), rec(15, 700), rec(2, 60)});
  const auto nine = p.round();
  EXPECT_EQ(origins_of(nine), (std::vector<std::uint32_t>{1, 2, 3, 5, 7, 9, 12, 15, 20}));
  EXPECT_EQ(nine[5].measured_at, sim::SimTime::ms(3000));
  EXPECT_EQ(nine[5].capability_bps, 1'000'009);
}

TEST(FreshnessAggregatorRound, LargerTableGoesOutFreshestFirstTiesByOrigin) {
  AggregationConfig cfg;
  cfg.records_per_gossip = 4;  // own + the 3 freshest
  RoundProbe p(cfg);
  p.sim.run_until(kFeedAt);
  p.receive({rec(6, 50), rec(5, 200), rec(4, 300), rec(3, 200), rec(2, 300), rec(1, 100)});
  // 2 and 4 tie at 300 ms, 3 and 5 at 200 ms: the smaller origin goes first,
  // and 5 loses the last place to 3.
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{2, 4, 3}));

  // A record that gets fresher climbs; the one it passes drops out.
  p.receive({rec(6, 250)});
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{2, 4, 6}));
  p.receive({rec(1, 5000), rec(5, 300)});
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{1, 2, 4}));
  // Staler or equal copies never replace what the table knows.
  p.receive({rec(1, 4000), rec(2, 300)});
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(p.agg->stats().records_merged, 9u);
  EXPECT_EQ(p.agg->stats().records_stale_dropped, 2u);
}

TEST(FreshnessAggregatorRound, OneRecordPerGossipSendsOwnOnly) {
  AggregationConfig cfg;
  cfg.records_per_gossip = 1;
  RoundProbe p(cfg);
  p.sim.run_until(kFeedAt);
  p.receive({rec(4, 100), rec(2, 200)});
  EXPECT_TRUE(p.round().empty());
  EXPECT_EQ(p.agg->known_origins(), 2u);
}

TEST(FreshnessAggregatorRound, CappedTableEvictsStalestTieAgainstLargerOrigin) {
  AggregationConfig cfg;
  cfg.max_records = 3;
  RoundProbe p(cfg);
  p.sim.run_until(kFeedAt);
  p.receive({rec(1, 200), rec(2, 100), rec(3, 100)});
  // 2 and 3 are equally stale: the larger origin loses its slot.
  p.receive({rec(4, 150)});
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(p.agg->stats().records_merged, 4u);

  // A newcomer staler than every record, or as stale as the stalest, is
  // dropped and counted.
  p.receive({rec(5, 50)});
  p.receive({rec(6, 100)});
  EXPECT_EQ(p.agg->stats().records_stale_dropped, 2u);
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(p.agg->known_origins(), 3u);
}

TEST(FreshnessAggregatorRound, EvictionReachesTheRoundOnlyWhileTheTableFits) {
  {
    // Cap 4 <= k - 1 = 5: the whole table goes out, and an eviction takes
    // the stalest record out of the round.
    AggregationConfig cfg;
    cfg.records_per_gossip = 6;
    cfg.max_records = 4;
    RoundProbe p(cfg);
    p.sim.run_until(kFeedAt);
    p.receive({rec(9, 400), rec(3, 100), rec(5, 300), rec(7, 200)});
    EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{3, 5, 7, 9}));
    p.receive({rec(1, 500)});  // evicts 3
    EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{1, 5, 7, 9}));
    p.receive({rec(7, 600), rec(8, 350)});  // 7 refreshed, then 8 evicts 5
    const auto sent = p.round();
    EXPECT_EQ(origins_of(sent), (std::vector<std::uint32_t>{1, 7, 8, 9}));
    EXPECT_EQ(sent[1].measured_at, sim::SimTime::ms(600));
  }
  {
    // Cap 6 > k - 1 = 3: the evicted record is the stalest of more than
    // k - 1, so the freshest three survive every eviction.
    AggregationConfig cfg;
    cfg.records_per_gossip = 4;
    cfg.max_records = 6;
    RoundProbe p(cfg);
    p.sim.run_until(kFeedAt);
    p.receive({rec(1, 100), rec(2, 600), rec(3, 200), rec(4, 500), rec(5, 300), rec(6, 400)});
    EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{2, 4, 6}));
    p.receive({rec(7, 150)});  // evicts 1
    p.receive({rec(8, 250)});  // evicts 7
    EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{2, 4, 6}));
    p.receive({rec(9, 700)});  // evicts 3 and enters first
    EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{9, 2, 4}));
    EXPECT_EQ(p.agg->known_origins(), 6u);
    EXPECT_EQ(p.agg->stats().records_merged, 9u);
  }
}

TEST(FreshnessAggregatorRound, RejectedInputIsCountedAndSkipped) {
  AggregationConfig cfg;
  cfg.records_per_gossip = 3;
  RoundProbe p(cfg, 10);
  p.sim.run_until(kFeedAt);
  p.receive({rec(2, 100), rec(3, 200)});

  // Undecodable: truncated mid-record.
  auto bytes = gossip::encode(gossip::AggregationMsg{NodeId{1}, {rec(4, 300)}});
  p.agg->on_datagram(net::Datagram{NodeId{1}, NodeId{0}, net::MsgClass::kAggregation, 0,
                                   bytes.slice(0, bytes.size() - 1), {}});
  EXPECT_EQ(p.agg->stats().malformed, 1u);

  // Origin 10 is not a registered node; a stamp 1 ms after now would lead
  // the round forever. Both are skipped, the valid record beside them kept.
  p.receive({rec(10, 500), {NodeId{5}, 9, kFeedAt + sim::SimTime::ms(1)}, rec(6, 50)});
  EXPECT_EQ(p.agg->stats().malformed, 3u);
  EXPECT_EQ(p.agg->stats().records_merged, 3u);
  EXPECT_EQ(p.agg->known_origins(), 3u);
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{3, 2}));

  // A stamp of exactly now is valid.
  p.receive({{NodeId{7}, 9, p.sim.now()}});
  EXPECT_EQ(p.agg->stats().malformed, 3u);
  EXPECT_EQ(origins_of(p.round()), (std::vector<std::uint32_t>{7, 3}));
}

TEST(FreshnessAggregatorRound, TrailingBytesAreMalformed) {
  RoundProbe p(AggregationConfig{}, 10);
  p.sim.run_until(kFeedAt);
  auto bytes = gossip::encode(gossip::AggregationMsg{NodeId{1}, {rec(4, 300)}}).to_vector();
  bytes.push_back(0);
  p.agg->on_datagram(net::Datagram{NodeId{1}, NodeId{0}, net::MsgClass::kAggregation, 0,
                                   net::BufferRef::copy_of(bytes), {}});
  EXPECT_EQ(p.agg->stats().malformed, 1u);
  EXPECT_EQ(p.agg->stats().records_merged, 0u);
  EXPECT_EQ(p.agg->known_origins(), 0u);
}

TEST(FreshnessAggregatorRound, OutOfRangeCapabilitiesAreMalformed) {
  RoundProbe p(AggregationConfig{}, 10);
  p.sim.run_until(kFeedAt);
  p.receive({rec(2, 100), rec(3, 200)});
  const double before = p.agg->average_capability_bps();

  // A negative rate would drive the estimate below zero, and one above
  // unlimited would push every fanout target to zero. Both are skipped.
  p.receive({{NodeId{4}, -1'000'000'000, sim::SimTime::ms(300)},
             {NodeId{5}, 9'000'000'000'000'000'000, sim::SimTime::ms(300)}});
  EXPECT_EQ(p.agg->stats().malformed, 2u);
  EXPECT_EQ(p.agg->stats().records_merged, 2u);
  EXPECT_EQ(p.agg->known_origins(), 2u);
  EXPECT_EQ(p.agg->average_capability_bps(), before);
}

TEST(FreshnessAggregatorRound, UnlimitedCapabilitiesSumWithoutOverflow) {
  RoundProbe p(AggregationConfig{}, 10);
  p.sim.run_until(kFeedAt);
  const std::int64_t unlimited = BitRate::unlimited().bits_per_sec();
  std::vector<CapabilityRecord> records;
  for (std::uint32_t origin = 1; origin < 10; ++origin) {
    records.push_back({NodeId{origin}, unlimited, sim::SimTime::ms(100)});
  }
  p.receive(std::move(records));
  EXPECT_EQ(p.agg->stats().malformed, 0u);
  EXPECT_EQ(p.agg->known_origins(), 9u);

  // Nine records of 2^62 sum past the int64 range; the estimate stays exact.
  const double avg = p.agg->average_capability_bps();
  EXPECT_TRUE(std::isfinite(avg));
  EXPECT_GT(avg, 0.0);
  EXPECT_DOUBLE_EQ(avg, (9.0 * static_cast<double>(unlimited) + RoundProbe::kOwnBps) / 10.0);
}

// The aggregation rules written plainly: an origin-keyed map, a full scan for
// the stalest record, and a partial_sort of the whole table for each round.
struct TableModel {
  std::size_t records_per_gossip = 10;
  std::size_t max_records = 0;
  std::map<std::uint32_t, CapabilityRecord> table;
  std::uint64_t merged = 0;
  std::uint64_t stale_dropped = 0;

  static bool fresher(const CapabilityRecord& a, const CapabilityRecord& b) {
    if (a.measured_at != b.measured_at) return a.measured_at > b.measured_at;
    return a.origin < b.origin;
  }

  void merge(const CapabilityRecord& r) {
    if (r.origin == NodeId{0}) return;
    const auto it = table.find(r.origin.value());
    if (it != table.end()) {
      if (it->second.measured_at >= r.measured_at) {
        ++stale_dropped;
        return;
      }
      it->second = r;
      ++merged;
      return;
    }
    if (max_records > 0 && table.size() >= max_records) {
      auto stalest = table.begin();
      for (auto j = table.begin(); j != table.end(); ++j) {
        if (!fresher(j->second, stalest->second)) stalest = j;
      }
      if (stalest->second.measured_at >= r.measured_at) {
        ++stale_dropped;
        return;
      }
      table.erase(stalest);
    }
    table.emplace(r.origin.value(), r);
    ++merged;
  }

  [[nodiscard]] std::vector<CapabilityRecord> round() const {
    std::vector<CapabilityRecord> all;
    for (const auto& [origin, r] : table) all.push_back(r);
    const std::size_t want = records_per_gossip - 1;
    if (all.size() <= want) return all;
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(want), all.end(),
                      fresher);
    all.resize(want);
    return all;
  }
};

TEST(FreshnessAggregatorRound, EveryRoundMatchesAPartialSortOfTheTable) {
  // Random merge sequences against the reference model. Stamps sit on a
  // coarse grid so ties are common; origins are drawn from a small universe
  // so records are re-sent, refreshed and go stale; caps fall below, at and
  // above k - 1, and uncapped tables grow through k - 1, so records keep
  // entering and leaving the freshest k - 1 in both directions.
  constexpr int kSequences = 1000;
  constexpr std::uint32_t kNodes = 41;
  Rng rng(0x5eed);
  int crossed = 0, capped_below = 0, capped_above = 0;
  for (int seq = 0; seq < kSequences; ++seq) {
    AggregationConfig cfg;
    cfg.records_per_gossip = 1 + rng.below(12);
    cfg.max_records = rng.chance(0.5) ? 0 : 1 + rng.below(16);
    const auto universe = static_cast<std::uint32_t>(1 + rng.below(kNodes - 1));
    RoundProbe p(cfg, kNodes, 100 + static_cast<std::uint64_t>(seq));
    p.sim.run_until(kFeedAt);
    TableModel model{cfg.records_per_gossip, cfg.max_records, {}, 0, 0};
    const std::size_t want = cfg.records_per_gossip - 1;
    bool below = false, above = false;
    const int rounds = 4 + static_cast<int>(rng.below(12));
    for (int r = 0; r < rounds; ++r) {
      const std::int64_t now_ms = p.sim.now().as_us() / 1000;
      const std::int64_t grid_ms = 1 + static_cast<std::int64_t>(rng.below(2000));
      const auto grid_steps = static_cast<std::uint64_t>(now_ms / grid_ms) + 1;
      const auto batches = rng.below(4);
      for (std::uint64_t b = 0; b < batches; ++b) {
        std::vector<CapabilityRecord> batch;
        const auto size = 1 + rng.below(12);
        for (std::uint64_t i = 0; i < size; ++i) {
          // Origin 0 is the node itself, whose own record never merges.
          const auto origin = static_cast<std::uint32_t>(rng.below(universe + 1));
          const auto stamp_ms = static_cast<std::int64_t>(rng.below(grid_steps)) * grid_ms;
          batch.push_back({NodeId{origin}, static_cast<std::int64_t>(rng.below(4'000'000)),
                           sim::SimTime::ms(stamp_ms)});
        }
        for (const CapabilityRecord& c : batch) model.merge(c);
        p.receive(std::move(batch), NodeId{1 + static_cast<std::uint32_t>(rng.below(kNodes - 1))});
      }
      (model.table.size() <= want ? below : above) = true;
      const auto got = p.round();
      const auto expect = model.round();
      ASSERT_EQ(got.size(), expect.size()) << "sequence " << seq << " round " << r;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].origin, expect[i].origin) << "sequence " << seq << " round " << r;
        ASSERT_EQ(got[i].capability_bps, expect[i].capability_bps);
        ASSERT_EQ(got[i].measured_at, expect[i].measured_at);
      }
      ASSERT_EQ(p.agg->known_origins(), model.table.size());
    }
    ASSERT_EQ(p.agg->stats().records_merged, model.merged) << "sequence " << seq;
    ASSERT_EQ(p.agg->stats().records_stale_dropped, model.stale_dropped) << "sequence " << seq;
    if (below && above) ++crossed;
    if (cfg.max_records > 0) ++(cfg.max_records <= want ? capped_below : capped_above);
  }
  // The draw covers every regime, not just the common one.
  EXPECT_GT(crossed, 100);
  EXPECT_GT(capped_below, 50);
  EXPECT_GT(capped_above, 50);
}

}  // namespace
}  // namespace hg::aggregation
