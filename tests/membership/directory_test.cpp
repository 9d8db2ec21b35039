#include "membership/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "sim/sharded_engine.hpp"

namespace hg::membership {
namespace {

TEST(Directory, SelectNodesExcludesSelf) {
  sim::ShardedEngine engine(1, 10, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 10; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{3});
  Rng rng(1);
  std::vector<NodeId> out;
  for (int trial = 0; trial < 100; ++trial) {
    view->select_nodes(5, out, rng);
    EXPECT_EQ(out.size(), 5u);
    for (NodeId id : out) EXPECT_NE(id, NodeId{3});
  }
}

TEST(Directory, SelectNodesDistinct) {
  sim::ShardedEngine engine(2, 20, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 20; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  Rng rng(2);
  std::vector<NodeId> out;
  view->select_nodes(19, out, rng);
  std::set<NodeId> uniq(out.begin(), out.end());
  EXPECT_EQ(uniq.size(), 19u);
}

TEST(Directory, SelectNodesCappedByPopulation) {
  sim::ShardedEngine engine(3, 4, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 4; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  Rng rng(3);
  std::vector<NodeId> out;
  view->select_nodes(10, out, rng);
  EXPECT_EQ(out.size(), 3u);  // only 3 peers exist
}

TEST(Directory, SelectionIsUniform) {
  sim::ShardedEngine engine(4, 11, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 11; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  Rng rng(4);
  std::vector<NodeId> out;
  std::vector<int> counts(11, 0);
  constexpr int kRounds = 20000;
  for (int r = 0; r < kRounds; ++r) {
    view->select_nodes(2, out, rng);
    for (NodeId id : out) counts[id.value()]++;
  }
  // Each of the 10 peers expected kRounds*2/10 = 4000.
  EXPECT_EQ(counts[0], 0);
  for (std::uint32_t i = 1; i < 11; ++i) EXPECT_NEAR(counts[i], 4000, 400);
}

TEST(Directory, KillPropagatesAfterDetectionDelay) {
  sim::ShardedEngine engine(5, 5, {});
  DetectionConfig det;
  det.mean = sim::SimTime::sec(10);
  det.spread = 0.0;  // deterministic delay for the test
  Directory dir(engine, det);
  for (std::uint32_t i = 0; i < 5; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});

  engine.run_until(sim::SimTime::sec(1));
  dir.kill(NodeId{2});
  EXPECT_FALSE(dir.alive(NodeId{2}));
  EXPECT_EQ(dir.alive_count(), 4u);

  // Before detection: still believed alive.
  engine.run_until(sim::SimTime::sec(10));
  EXPECT_EQ(view->believed_peers(), 4u);
  // After detection: removed.
  engine.run_until(sim::SimTime::sec(12));
  EXPECT_EQ(view->believed_peers(), 3u);

  Rng rng(5);
  std::vector<NodeId> out;
  for (int t = 0; t < 50; ++t) {
    view->select_nodes(3, out, rng);
    for (NodeId id : out) EXPECT_NE(id, NodeId{2});
  }
}

TEST(Directory, DetectionDelayIsSpread) {
  sim::ShardedEngine engine(6, 100, {});
  DetectionConfig det;
  det.mean = sim::SimTime::sec(10);
  det.spread = 0.5;
  Directory dir(engine, det);
  for (std::uint32_t i = 0; i < 100; ++i) dir.add_node(NodeId{i});
  std::vector<std::unique_ptr<LocalView>> views;
  for (std::uint32_t i = 0; i < 100; ++i) views.push_back(dir.make_view(NodeId{i}));

  dir.kill(NodeId{7});
  // At t=5s (min possible delay) nobody has detected yet.
  engine.run_until(sim::SimTime::sec(4.9));
  int detected = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (i != 7 && views[i]->believed_peers() == 98) ++detected;
  }
  EXPECT_EQ(detected, 0);
  // Half-way (t=10s): roughly half have detected.
  engine.run_until(sim::SimTime::sec(10));
  detected = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (i != 7 && views[i]->believed_peers() == 98) ++detected;
  }
  EXPECT_GT(detected, 25);
  EXPECT_LT(detected, 75);
  // By t=15s everyone has.
  engine.run_until(sim::SimTime::sec(15.1));
  detected = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (i != 7 && views[i]->believed_peers() == 98) ++detected;
  }
  EXPECT_EQ(detected, 99);
}

TEST(Directory, DoubleKillIsIdempotent) {
  sim::ShardedEngine engine(7, 3, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 3; ++i) dir.add_node(NodeId{i});
  dir.kill(NodeId{1});
  dir.kill(NodeId{1});
  EXPECT_EQ(dir.alive_count(), 2u);
}

TEST(Directory, LazyViewStoresNothingUntilADeathIsDetected) {
  // Copy-on-write views: over an all-alive population a view is the
  // implicit identity mapping; only the first detected death materializes
  // the private peer array.
  sim::ShardedEngine engine(9, 1000, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 1000; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{500});
  EXPECT_FALSE(view->materialized());
  EXPECT_EQ(view->believed_peers(), 999u);
  Rng rng(3);
  std::vector<NodeId> out;
  view->select_nodes(20, out, rng);
  EXPECT_FALSE(view->materialized());  // selection alone never materializes

  view->mark_dead(NodeId{7});
  EXPECT_TRUE(view->materialized());
  EXPECT_EQ(view->believed_peers(), 998u);
}

TEST(Directory, CowViewMatchesClassicSnapshotAlgorithm) {
  // The lazy mapping (and its materialization) must be indistinguishable
  // from the classic eager snapshot + swap-remove bookkeeping: same RNG
  // stream in, same peers out, before and after deaths. The reference
  // implementation lives right here.
  const std::uint32_t n = 50;
  sim::ShardedEngine engine(10, n, {});
  Directory dir(engine, DetectionConfig{});
  const NodeId owner{10};
  for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(owner);

  std::vector<NodeId> ref_members;  // the classic snapshot, id order
  for (std::uint32_t i = 0; i < n; ++i) {
    if (NodeId{i} != owner) ref_members.push_back(NodeId{i});
  }
  auto ref_mark_dead = [&](NodeId id) {  // classic swap-remove
    const auto it = std::find(ref_members.begin(), ref_members.end(), id);
    ASSERT_NE(it, ref_members.end());
    *it = ref_members.back();
    ref_members.pop_back();
  };
  Rng view_rng(77);
  Rng ref_rng(77);
  std::vector<NodeId> got;
  std::vector<std::uint32_t> idx;
  auto expect_lockstep = [&](int trials) {
    for (int t = 0; t < trials; ++t) {
      view->select_nodes(7, got, view_rng);
      idx.clear();
      ref_rng.sample_indices(ref_members.size(), 7, idx);
      ASSERT_EQ(got.size(), idx.size());
      for (std::size_t k = 0; k < idx.size(); ++k) EXPECT_EQ(got[k], ref_members[idx[k]]);
    }
  };

  ASSERT_FALSE(view->materialized());
  expect_lockstep(200);  // lazy phase

  view->mark_dead(NodeId{23});  // materializes mid-run
  ref_mark_dead(NodeId{23});
  ASSERT_TRUE(view->materialized());
  expect_lockstep(200);

  view->mark_dead(NodeId{49});  // swap-remove order must also match
  ref_mark_dead(NodeId{49});
  view->mark_dead(NodeId{0});
  ref_mark_dead(NodeId{0});
  expect_lockstep(200);
}

TEST(Directory, ViewBuiltAfterDeathsMaterializesEagerly) {
  // The identity mapping only holds over an all-alive population; a view
  // built later must fall back to the snapshot and exclude the dead.
  sim::ShardedEngine engine(11, 10, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 10; ++i) dir.add_node(NodeId{i});
  dir.kill(NodeId{4});
  auto view = dir.make_view(NodeId{0});
  EXPECT_TRUE(view->materialized());
  EXPECT_EQ(view->believed_peers(), 8u);
  Rng rng(5);
  std::vector<NodeId> out;
  for (int trial = 0; trial < 50; ++trial) {
    view->select_nodes(8, out, rng);
    for (NodeId id : out) EXPECT_NE(id, NodeId{4});
  }
}

TEST(Directory, DetectionWheelSchedulesOneEventPerBucket) {
  // A death with N views must cost O(spread / wheel_tick) scheduled events,
  // not O(N): detections land in shared tick buckets. With spread 0 every
  // observer fires from the same bucket — exactly one event in the queue.
  constexpr std::uint32_t kNodes = 200;
  sim::ShardedEngine engine(3, kNodes, {});
  DetectionConfig det;
  det.mean = sim::SimTime::sec(10.0);
  det.spread = 0.0;
  Directory dir(engine, det);
  for (std::uint32_t i = 0; i < kNodes; ++i) dir.add_node(NodeId{i});
  std::vector<std::unique_ptr<LocalView>> views;
  for (std::uint32_t i = 0; i < kNodes; ++i) views.push_back(dir.make_view(NodeId{i}));

  const std::uint64_t before = engine.events_executed();
  dir.kill(NodeId{7});
  engine.run_until(sim::SimTime::sec(30));
  // One drain event total (plus nothing else pending in this run).
  EXPECT_EQ(engine.events_executed() - before, 1u);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    if (i == 7) continue;
    EXPECT_EQ(views[i]->believed_peers(), kNodes - 2) << i;
  }
}

TEST(Directory, WheelTickRoundsDetectionUpAtMostOneTick) {
  // Quantization contract: a detection fires at the first wheel tick at or
  // after its sampled delay — never before, never more than a tick late.
  sim::ShardedEngine engine(5, 3, {});
  DetectionConfig det;
  det.mean = sim::SimTime::sec(10.0);
  det.spread = 0.0;
  det.wheel_tick = sim::SimTime::ms(250);
  Directory dir(engine, det);
  for (std::uint32_t i = 0; i < 3; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  dir.kill(NodeId{1});
  // Exactly 10 s is already a tick multiple: must not fire before 10 s.
  engine.run_until(sim::SimTime::sec(10.0) - sim::SimTime::us(1));
  EXPECT_EQ(view->believed_peers(), 2u);
  engine.run_until(sim::SimTime::sec(10.0));
  EXPECT_EQ(view->believed_peers(), 1u);
}

TEST(Directory, WheelBucketsAreReusableAfterDrain) {
  // A second death whose detection maps to an already-drained bucket index
  // range must re-create buckets, not vanish.
  sim::ShardedEngine engine(6, 4, {});
  DetectionConfig det;
  det.mean = sim::SimTime::sec(1.0);
  det.spread = 0.0;
  Directory dir(engine, det);
  for (std::uint32_t i = 0; i < 4; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  dir.kill(NodeId{1});
  engine.run_until(sim::SimTime::sec(5));
  EXPECT_EQ(view->believed_peers(), 2u);
  dir.kill(NodeId{2});
  engine.run_until(sim::SimTime::sec(10));
  EXPECT_EQ(view->believed_peers(), 1u);
}

TEST(Directory, ViewOfKilledOwnerUnaffected) {
  // A dead node's own view is not updated (it is dead), but destroying the
  // view must not crash pending detection events.
  sim::ShardedEngine engine(8, 3, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < 3; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{1});
  dir.kill(NodeId{0});
  view.reset();  // destroyed before detection event fires
  engine.run_until(sim::SimTime::sec(30));
}

TEST(Directory, DestroyedViewsLeaveKillDrawingAsIfNeverRegistered) {
  // kill() draws one detection delay per registered view, in registration
  // order. Destroying views 3 and 7 must leave every other view's draw
  // exactly as in a directory that never had them, and a view destroyed
  // while its detection is pending (8) must be skipped when the drain fires.
  struct Run {
    std::vector<sim::SimTime> drains;    // drain times, in firing order
    std::vector<sim::SimTime> detected;  // per owner; max() = never
  };
  const auto run = [](const std::vector<std::uint32_t>& built,
                      const std::vector<std::uint32_t>& destroyed) {
    sim::ShardedEngine engine(42, 10, {});
    const DetectionConfig det;
    Directory dir(engine, det);
    for (std::uint32_t i = 0; i < 10; ++i) dir.add_node(NodeId{i});
    std::vector<std::unique_ptr<LocalView>> views(10);
    for (const std::uint32_t i : built) views[i] = dir.make_view(NodeId{i});
    for (const std::uint32_t i : destroyed) views[i].reset();
    engine.run_until(sim::SimTime::sec(1.0));
    dir.kill(NodeId{5});
    views[8].reset();
    Run r;
    r.detected.assign(10, sim::SimTime::max());
    // Drains fire on wheel ticks only, so stepping one tick at a time from a
    // tick multiple sees each drain run alone, at its own step's bound.
    while (engine.sim_of(0).next_event_time().has_value()) {
      const sim::SimTime now = engine.now() + det.wheel_tick;
      if (engine.run_until(now) > 0) r.drains.push_back(now);
      for (std::uint32_t i = 0; i < 10; ++i) {
        if (views[i] != nullptr && views[i]->believed_peers() == 8 &&
            r.detected[i] == sim::SimTime::max()) {
          r.detected[i] = now;
        }
      }
    }
    return r;
  };
  const Run destroyed = run({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {3, 7});
  const Run never_built = run({0, 1, 2, 4, 5, 6, 8, 9}, {});
  EXPECT_EQ(destroyed.drains, never_built.drains);
  EXPECT_EQ(destroyed.detected, never_built.detected);
  for (const std::uint32_t i : {0u, 1u, 2u, 4u, 6u, 9u}) {
    EXPECT_NE(destroyed.detected[i], sim::SimTime::max()) << i;
  }
  // The surviving observers' draws are spread over more than one drain.
  EXPECT_GT(std::set<sim::SimTime>(destroyed.detected.begin(), destroyed.detected.end()).size(),
            2u);
}

}  // namespace
}  // namespace hg::membership
