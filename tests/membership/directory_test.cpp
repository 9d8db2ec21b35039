#include "membership/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
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
  EXPECT_EQ(view->state_bytes(), 0u);
  EXPECT_EQ(view->believed_peers(), 999u);
  Rng rng(3);
  std::vector<NodeId> out;
  view->select_nodes(20, out, rng);
  EXPECT_FALSE(view->materialized());  // selection alone never materializes

  view->mark_dead(NodeId{7});
  EXPECT_TRUE(view->materialized());
  EXPECT_EQ(view->believed_peers(), 998u);
}

// The classic dense snapshot: members in id order (owner excluded), and a
// detected death swap-removes the dead id (the last member fills its slot).
// LocalView's sparse representation must be indistinguishable from it.
struct ReferenceView {
  ReferenceView(std::uint32_t n, NodeId owner) : owner(owner), n(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (NodeId{i} != owner) members.push_back(NodeId{i});
    }
  }
  void mark_dead(NodeId id) {
    if (id == owner || id.value() >= n) return;
    const auto it = std::find(members.begin(), members.end(), id);
    if (it == members.end()) return;
    *it = members.back();
    members.pop_back();
  }
  NodeId owner;
  std::uint32_t n;
  std::vector<NodeId> members;
};

// Draws k indices from `ref_rng` exactly as select_nodes draws from
// `view_rng`, and checks the view returned the reference's members there.
void expect_same_selection(LocalView& view, const ReferenceView& ref, std::size_t k,
                           Rng& view_rng, Rng& ref_rng) {
  std::vector<NodeId> got;
  std::vector<std::uint32_t> idx;
  view.select_nodes(k, got, view_rng);
  ref_rng.sample_indices(ref.members.size(), std::min(k, ref.members.size()), idx);
  ASSERT_EQ(got.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) ASSERT_EQ(got[i], ref.members[idx[i]]) << i;
}

TEST(Directory, CowViewMatchesClassicSnapshotAlgorithm) {
  // The lazy mapping (and its patched form) must be indistinguishable from
  // the classic eager snapshot + swap-remove bookkeeping: same RNG stream
  // in, same peers out, before and after deaths.
  const std::uint32_t n = 50;
  sim::ShardedEngine engine(10, n, {});
  Directory dir(engine, DetectionConfig{});
  const NodeId owner{10};
  for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(owner);
  ReferenceView ref(n, owner);
  Rng view_rng(77);
  Rng ref_rng(77);
  auto expect_lockstep = [&](int trials) {
    for (int t = 0; t < trials; ++t) expect_same_selection(*view, ref, 7, view_rng, ref_rng);
  };

  ASSERT_FALSE(view->materialized());
  expect_lockstep(200);  // lazy phase

  view->mark_dead(NodeId{23});  // first detection mid-run
  ref.mark_dead(NodeId{23});
  ASSERT_TRUE(view->materialized());
  expect_lockstep(200);

  view->mark_dead(NodeId{49});  // swap-remove order must also match
  ref.mark_dead(NodeId{49});
  view->mark_dead(NodeId{0});
  ref.mark_dead(NodeId{0});
  expect_lockstep(200);
}

TEST(Directory, RandomMarkDeadSequencesMatchTheDenseReference) {
  // Thousands of seeded mark_dead sequences against the dense reference:
  // repeats, the owner, out-of-range ids, ids already moved in from the
  // tail, and sequences that empty the view. Every step checks the believed
  // count, a full permutation and a random-size selection in lockstep.
  Rng gen(2024);
  for (int seq = 0; seq < 3000; ++seq) {
    const auto n = static_cast<std::uint32_t>(1 + gen.below(48));
    // Now and then the owner is not a directory member at all.
    const NodeId owner{static_cast<std::uint32_t>(gen.below(n + 1))};
    sim::ShardedEngine engine(static_cast<std::uint64_t>(seq), n + 1, {});
    Directory dir(engine, DetectionConfig{});
    for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
    auto view = dir.make_view(owner);
    ReferenceView ref(n, owner);
    Rng view_rng(static_cast<std::uint64_t>(seq) + 1);
    Rng ref_rng(static_cast<std::uint64_t>(seq) + 1);
    const std::size_t steps = gen.below(3 * n);
    for (std::size_t step = 0; step < steps; ++step) {
      NodeId id;
      const auto kind = gen.below(8);
      if (kind == 0) {
        id = owner;
      } else if (kind == 1) {
        id = NodeId{static_cast<std::uint32_t>(n + gen.below(3))};  // out of range
      } else if (kind <= 3 && !ref.members.empty()) {
        // A member near the end of the sequence: once its predecessors die,
        // these are the ids that have moved in from the removed tail.
        const std::size_t from_end = gen.below(std::min<std::size_t>(4, ref.members.size()));
        id = ref.members[ref.members.size() - 1 - from_end];
      } else {
        id = NodeId{static_cast<std::uint32_t>(gen.below(n))};  // may repeat
      }
      const bool counts = id != owner && id.value() < n;
      const bool was_materialized = view->materialized();
      view->mark_dead(id);
      ref.mark_dead(id);
      ASSERT_EQ(view->materialized(), was_materialized || counts) << "seq " << seq;
      ASSERT_EQ(view->believed_peers(), ref.members.size()) << "seq " << seq;
      expect_same_selection(*view, ref, ref.members.size(), view_rng, ref_rng);
      expect_same_selection(*view, ref, gen.below(n + 1), view_rng, ref_rng);
      if (HasFatalFailure()) FAIL() << "seq " << seq << " step " << step;
    }
    if (seq % 3 == 0) {
      // Empty the view completely, in a shuffled order.
      std::vector<NodeId> rest = ref.members;
      for (std::size_t i = rest.size(); i > 1; --i) std::swap(rest[i - 1], rest[gen.below(i)]);
      for (const NodeId id : rest) {
        view->mark_dead(id);
        ref.mark_dead(id);
        expect_same_selection(*view, ref, ref.members.size(), view_rng, ref_rng);
        if (HasFatalFailure()) FAIL() << "seq " << seq << " emptying";
      }
      EXPECT_EQ(view->believed_peers(), 0u);
      std::vector<NodeId> out;
      view->select_nodes(3, out, view_rng);
      EXPECT_TRUE(out.empty());
    }
  }
}

TEST(Directory, RandomKillsThroughTheWheelMatchTheDenseReference) {
  // Kills through the directory, each detected by every other view exactly
  // 50 ms later: at each step some deaths are detected and some pending, so
  // picks cross live originals (skipped through the directory's alive
  // bits), dead but undetected ones and patched positions.
  Rng gen(4711);
  DetectionConfig det;
  det.mean = sim::SimTime::ms(50);
  det.spread = 0.0;
  det.wheel_tick = sim::SimTime::ms(1);
  for (int seq = 0; seq < 300; ++seq) {
    const auto n = static_cast<std::uint32_t>(2 + gen.below(60));
    sim::ShardedEngine engine(static_cast<std::uint64_t>(seq), n, {});
    Directory dir(engine, det);
    for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
    std::vector<std::unique_ptr<LocalView>> views;
    std::vector<ReferenceView> refs;
    // A directory drives one view per owner, so the owners are distinct.
    const auto first = static_cast<std::uint32_t>(gen.below(n));
    for (std::uint32_t v = 0; v < std::min<std::uint32_t>(3, n); ++v) {
      const NodeId owner{(first + v) % n};
      views.push_back(dir.make_view(owner));
      refs.emplace_back(n, owner);
    }
    std::vector<std::pair<sim::SimTime, NodeId>> kills;  // in kill order
    std::size_t detected = 0;
    Rng view_rng(static_cast<std::uint64_t>(seq) + 7);
    Rng ref_rng(static_cast<std::uint64_t>(seq) + 7);
    const std::size_t steps = 2 * n + 10;
    for (std::size_t step = 0; step < steps; ++step) {
      engine.run_until(engine.now() + sim::SimTime::ms(10));
      for (; detected < kills.size() && kills[detected].first + det.mean <= engine.now();
           ++detected) {
        for (ReferenceView& ref : refs) ref.mark_dead(kills[detected].second);
      }
      for (std::size_t v = 0; v < views.size(); ++v) {
        ASSERT_EQ(views[v]->believed_peers(), refs[v].members.size()) << "seq " << seq;
        expect_same_selection(*views[v], refs[v], refs[v].members.size(), view_rng, ref_rng);
        expect_same_selection(*views[v], refs[v], gen.below(n), view_rng, ref_rng);
        if (HasFatalFailure()) FAIL() << "seq " << seq << " step " << step;
      }
      if (gen.below(3) != 0) {
        const NodeId id{static_cast<std::uint32_t>(gen.below(n))};
        if (dir.alive(id)) kills.emplace_back(engine.now(), id);
        dir.kill(id);
      }
    }
  }
}

TEST(Directory, DetectionsApplyInBucketThenKillOrder) {
  // One observer, four kills: two share a wheel bucket, two land in later
  // buckets of their own. The member order must equal the reference's swap-
  // removes applied in (bucket, kill) order; 2-then-3 and 3-then-2 differ.
  constexpr std::uint32_t kNodes = 10;
  sim::ShardedEngine engine(12, kNodes, {});
  DetectionConfig det;
  det.mean = sim::SimTime::sec(10.0);
  det.spread = 0.0;
  det.wheel_tick = sim::SimTime::sec(1.0);
  Directory dir(engine, det);
  for (std::uint32_t i = 0; i < kNodes; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  ReferenceView ref(kNodes, NodeId{0});
  Rng view_rng(5);
  Rng ref_rng(5);

  engine.run_until(sim::SimTime::ms(100));
  dir.kill(NodeId{2});  // fires at 10.1 s -> bucket 11
  engine.run_until(sim::SimTime::ms(200));
  dir.kill(NodeId{3});  // fires at 10.2 s -> bucket 11, after 2
  engine.run_until(sim::SimTime::ms(1300));
  dir.kill(NodeId{5});  // bucket 12
  engine.run_until(sim::SimTime::ms(2600));
  dir.kill(NodeId{6});  // bucket 13

  engine.run_until(sim::SimTime::sec(11.0) - sim::SimTime::us(1));
  EXPECT_EQ(view->believed_peers(), 9u);
  engine.run_until(sim::SimTime::sec(11.0));
  ref.mark_dead(NodeId{2});
  ref.mark_dead(NodeId{3});
  EXPECT_EQ(view->believed_peers(), 7u);
  expect_same_selection(*view, ref, ref.members.size(), view_rng, ref_rng);
  engine.run_until(sim::SimTime::sec(12.0));
  ref.mark_dead(NodeId{5});
  expect_same_selection(*view, ref, ref.members.size(), view_rng, ref_rng);
  engine.run_until(sim::SimTime::sec(13.0));
  ref.mark_dead(NodeId{6});
  EXPECT_EQ(view->believed_peers(), 5u);
  expect_same_selection(*view, ref, ref.members.size(), view_rng, ref_rng);
  EXPECT_EQ(ref.members, (std::vector<NodeId>{NodeId{1}, NodeId{9}, NodeId{8}, NodeId{4},
                                               NodeId{7}}));
}

TEST(Directory, ViewStateGrowsWithDetectedDeathsNotPopulation) {
  // A view that detected one death in a 10k-node directory owns a few
  // hundred bytes, not a dense per-node array (80 KB for two u32 arrays).
  constexpr std::uint32_t kNodes = 10'000;
  sim::ShardedEngine engine(13, kNodes, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < kNodes; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{1234});
  EXPECT_EQ(view->state_bytes(), 0u);
  dir.kill(NodeId{42});
  engine.run_until(sim::SimTime::sec(30));
  ASSERT_EQ(view->believed_peers(), kNodes - 2);
  EXPECT_TRUE(view->materialized());
  EXPECT_LE(view->state_bytes(), 2048u);
}

TEST(Directory, RemovedPositionsFreeTheirTableSlots) {
  // Alternate two deaths: the member just before the last (its position is
  // refilled from the end, adding a patch) and the next original id at the
  // front (adding a patch while the patched last position leaves the
  // sequence). 250 pairs leave 250 live patches, which fit a 512-slot table
  // (4 KB); keeping the 250 removed positions' entries would need 1,024
  // slots (8 KB). The tail array adds 2 KB.
  constexpr std::uint32_t kNodes = 1000;
  sim::ShardedEngine engine(14, kNodes, {});
  Directory dir(engine, DetectionConfig{});
  for (std::uint32_t i = 0; i < kNodes; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{kNodes - 1});
  ReferenceView ref(kNodes, NodeId{kNodes - 1});
  for (std::uint32_t front = 0; front < 250; ++front) {
    for (const NodeId id : {ref.members[ref.members.size() - 2], NodeId{front}}) {
      view->mark_dead(id);
      ref.mark_dead(id);
    }
  }
  ASSERT_EQ(view->believed_peers(), ref.members.size());
  EXPECT_LT(view->state_bytes(), 8u * 1024);
  Rng view_rng(6);
  Rng ref_rng(6);
  expect_same_selection(*view, ref, ref.members.size(), view_rng, ref_rng);
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
