#include "net/buffer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "gossip/fanout_policy.hpp"
#include "gossip/three_phase.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "net/serde.hpp"
#include "sim/simulator.hpp"

namespace hg::net {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return v;
}

TEST(BufferRef, CopyOfRoundTrips) {
  const auto src = pattern(1316);
  BufferRef ref = BufferRef::copy_of(src);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.size(), src.size());
  EXPECT_EQ(ref.to_vector(), src);
}

TEST(BufferRef, DefaultIsNullAndEmpty) {
  BufferRef ref;
  EXPECT_FALSE(ref);
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_EQ(ref.data(), nullptr);
}

TEST(BufferRef, CopiesShareTheChunk) {
  BufferRef a = BufferRef::copy_of(pattern(100));
  EXPECT_EQ(a.ref_count(), 1u);
  BufferRef b = a;
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(a.data(), b.data());
  b.reset();
  EXPECT_EQ(a.ref_count(), 1u);
}

TEST(BufferRef, SlicePinsTheBackingChunk) {
  BufferRef whole = BufferRef::copy_of(pattern(256));
  BufferRef mid = whole.slice(16, 64);
  EXPECT_EQ(whole.ref_count(), 2u);
  EXPECT_EQ(mid.size(), 64u);
  EXPECT_EQ(mid.data(), whole.data() + 16);
  // Slice of a slice composes offsets on the same chunk.
  BufferRef inner = mid.slice(8, 8);
  EXPECT_EQ(inner.data(), whole.data() + 24);
  EXPECT_EQ(whole.ref_count(), 3u);
  const auto expected = pattern(256);
  EXPECT_EQ(inner.to_vector(),
            std::vector<std::uint8_t>(expected.begin() + 24, expected.begin() + 32));
}

TEST(ChunkRef, CopiesShareTheChunkAndTheLastReleaseReturnsIt) {
  BufferPool& pool = BufferPool::local();
  const std::int64_t baseline = pool.live_chunks();
  ChunkRef a = ChunkRef::copy_of(pattern(1316));
  EXPECT_EQ(a.size(), 1316u);
  EXPECT_EQ(a.bytes()[5], pattern(6)[5]);
  ChunkRef b = a;
  EXPECT_EQ(a.ref_count(), 2u);
  // A BufferRef over the whole chunk shares it; a slice of it is not whole.
  BufferRef view(b);
  EXPECT_TRUE(view.whole());
  EXPECT_EQ(view.data(), a.data());
  EXPECT_EQ(view.size(), a.size());
  EXPECT_EQ(a.ref_count(), 3u);
  EXPECT_FALSE(view.slice(1, 10).whole());
  EXPECT_EQ(view.chunk().data(), a.data());
  a.reset();
  b.reset();
  EXPECT_EQ(pool.live_chunks(), baseline + 1);
  view.reset();
  EXPECT_EQ(pool.live_chunks(), baseline);
  EXPECT_FALSE(a);
  EXPECT_EQ(a.size(), 0u);
}

TEST(BufferPool, ReleasedChunksAreRecycled) {
  BufferPool& pool = BufferPool::local();
  { BufferRef warm = BufferRef::copy_of(pattern(1000)); }  // prime the 1 KiB class
  const auto allocs_before = pool.stats().chunk_allocs;
  const auto hits_before = pool.stats().pool_hits;
  for (int i = 0; i < 100; ++i) {
    BufferRef ref = BufferRef::copy_of(pattern(1000));
    ASSERT_TRUE(ref);
  }
  EXPECT_EQ(pool.stats().chunk_allocs, allocs_before);
  EXPECT_EQ(pool.stats().pool_hits, hits_before + 100);
}

TEST(BufferPool, OversizedRequestsBypassTheFreeLists) {
  BufferPool& pool = BufferPool::local();
  const auto oversized_before = pool.stats().oversized;
  const std::vector<std::uint8_t> big(BufferPool::kMaxClassBytes + 1, 0x42);
  { BufferRef ref = BufferRef::copy_of(big); }
  { BufferRef ref = BufferRef::copy_of(big); }
  EXPECT_EQ(pool.stats().oversized, oversized_before + 2);
}

TEST(BufferPool, LiveChunksCountsOversizedReleases) {
  // An oversized chunk bypasses the free lists on release too; it must
  // still count as released, or live_chunks() drifts up by one per chunk.
  BufferPool& pool = BufferPool::local();
  const std::int64_t baseline = pool.live_chunks();
  const std::vector<std::uint8_t> big(BufferPool::kMaxClassBytes + 1, 0x42);
  {
    BufferRef ref = BufferRef::copy_of(big);
    EXPECT_EQ(pool.live_chunks(), baseline + 1);
  }
  EXPECT_EQ(pool.live_chunks(), baseline);
  { BufferRef small = BufferRef::copy_of(pattern(100)); }
  EXPECT_EQ(pool.live_chunks(), baseline);
}

TEST(BufferPool, ForeignThreadReleaseIsSafe) {
  // A buffer allocated here, released on another thread: freed directly,
  // never pushed onto a foreign free list.
  BufferRef ref = BufferRef::copy_of(pattern(128));
  std::thread t([moved = std::move(ref)]() mutable { moved.reset(); });
  t.join();
}

TEST(ByteWriter, GrowsAcrossSizeClasses) {
  ByteWriter w(16);
  constexpr std::uint64_t kWords = 12'500;  // 100,000 bytes: several class upgrades
  for (std::uint64_t i = 0; i < kWords; ++i) w.u64(i * 0x9e3779b97f4a7c15ULL);
  BufferRef out = w.finish();
  EXPECT_EQ(out.size(), kWords * 8);
  ByteReader r(out);
  for (std::uint64_t i = 0; i < kWords; ++i) ASSERT_EQ(r.u64(), i * 0x9e3779b97f4a7c15ULL) << i;
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriter, FinishTransfersOwnershipWithoutCopy) {
  ByteWriter w(64);
  w.u64(0xdeadbeefcafef00dULL);
  const std::span<const std::uint8_t> before = w.view();
  BufferRef out = w.finish();
  EXPECT_EQ(out.data(), before.data());  // same chunk, no copy
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(out.ref_count(), 1u);
}

// --- the tentpole acceptance checks --------------------------------------
// Steady-state send→deliver traffic must be allocation-free: once the pool
// free lists are warm, every encode (propose/request/serve), every datagram
// hop, and every delivered payload reuses recycled chunks. The event queue
// side is covered by event_queue_test; these cover the wire-buffer side.

// Deterministic three-phase exchange over the real fabric + upload link:
// propose → request → batched serve → zero-copy delivery, with stored
// payloads evicted ring-buffer style. Sizes repeat exactly, so after warm-up
// the pool must serve every chunk from its free lists — zero new allocs.
TEST(BufferPool, SteadyStateWirePathIsAllocationFree) {
  sim::ShardedEngine engine(7, 2, {});
  sim::Simulator& sim = engine.sim_of(0);
  NetworkFabric fabric(engine, std::make_unique<ConstantLatency>(sim::SimTime::ms(2)));
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kPayloadBytes = 1316;

  // Node 1 stores delivered payloads (the bodies the serves carried) with a
  // bounded horizon, like the gossip engine's gc.
  std::deque<BufferRef> stored;
  std::uint64_t served_total = 0;
  std::vector<gossip::Event> events;
  std::vector<gossip::ServeSpan> spans;
  fabric.register_node(NodeId{0}, BitRate::unlimited(), [&](const Datagram& d) {
    // Node 0: answer a request with the production batched-serve path —
    // one pooled header buffer, one slice of it per event, and the event's
    // payload chunk as the body.
    const auto req = gossip::decode_request(d.bytes);
    ASSERT_TRUE(req.has_value());
    events.clear();
    for (gossip::EventId id : req->ids) {
      events.push_back(gossip::Event{id, BufferRef::copy_of(pattern(kPayloadBytes))});
    }
    const BufferRef headers = gossip::encode_serve_batch(NodeId{0}, events, spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      fabric.send(NodeId{0}, NodeId{1}, MsgClass::kServe,
                  headers.slice(spans[i].offset, spans[i].length), gossip::serve_body(events[i]));
    }
  });
  fabric.register_node(NodeId{1}, BitRate::mbps(100), [&](const Datagram& d) {
    const auto tag = gossip::peek_tag(d.bytes);
    ASSERT_TRUE(tag.has_value());
    if (*tag == gossip::MsgTag::kPropose) {
      const auto prop = gossip::decode_propose(d.bytes);
      ASSERT_TRUE(prop.has_value());
      fabric.send(NodeId{1}, NodeId{0}, MsgClass::kRequest,
                  gossip::encode(gossip::RequestMsg{NodeId{1}, prop->ids}));
    } else {
      const auto serve = gossip::decode_serve(d.bytes, d.body);
      ASSERT_TRUE(serve.has_value());
      stored.push_back(serve->event.payload);  // the sender's chunk itself
      while (stored.size() > 5 * kBatch) stored.pop_front();
      ++served_total;
    }
  });

  std::uint32_t round = 0;
  const auto run_round = [&]() {
    std::vector<gossip::EventId> ids;
    for (std::uint16_t k = 0; k < kBatch; ++k) ids.emplace_back(round, k);
    fabric.send(NodeId{0}, NodeId{1}, MsgClass::kPropose,
                gossip::encode(gossip::ProposeMsg{NodeId{0}, ids}));
    ++round;
    sim.run_until(sim::SimTime::ms(20) * round);
  };

  for (int i = 0; i < 50; ++i) run_round();  // warm the free lists

  BufferPool& pool = BufferPool::local();
  const auto allocs_before = pool.stats().chunk_allocs;
  const auto hits_before = pool.stats().pool_hits;
  const auto served_before = served_total;
  for (int i = 0; i < 500; ++i) run_round();
  EXPECT_EQ(pool.stats().chunk_allocs, allocs_before)
      << "steady-state send→deliver must draw every buffer from the pool";
  EXPECT_GT(pool.stats().pool_hits, hits_before);
  EXPECT_EQ(served_total - served_before, 500u * kBatch);
}

// The full gossip swarm is stochastic (round batching varies), so demand for
// new free-list depth decays rather than stopping at an exact round; assert
// the allocation *rate* collapses: recycled chunks outnumber new allocations
// by >= 100x once warm.
TEST(BufferPool, GossipSwarmSteadyStateRecyclesChunks) {
  constexpr std::uint32_t kNodes = 8;
  sim::ShardedEngine engine(99, kNodes, {});
  sim::Simulator& sim = engine.sim_of(0);
  NetworkFabric fabric(engine, std::make_unique<ConstantLatency>(sim::SimTime::ms(5)));
  membership::Directory directory(engine, membership::DetectionConfig{});
  for (std::uint32_t i = 0; i < kNodes; ++i) directory.add_node(NodeId{i});

  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<gossip::FixedFanout>> policies;
  std::vector<std::unique_ptr<gossip::ThreePhaseGossip>> nodes;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const NodeId id{i};
    views.push_back(directory.make_view(id));
    policies.push_back(std::make_unique<gossip::FixedFanout>(3.0));
    nodes.push_back(std::make_unique<gossip::ThreePhaseGossip>(
        sim, fabric, *views.back(), id, gossip::GossipConfig{}, *policies.back()));
    fabric.register_node(id, BitRate::unlimited(),
                         [g = nodes.back().get()](const Datagram& d) { g->on_datagram(d); });
  }
  for (auto& g : nodes) g->start();

  const auto publish_window = [&](std::uint32_t w) {
    for (std::uint16_t k = 0; k < 4; ++k) {
      nodes[0]->publish(
          gossip::Event{gossip::EventId{w, k}, BufferRef::copy_of(pattern(1316))});
    }
  };

  // Warm-up: grow the pool free lists, the scratch vectors, and the hash
  // maps to their typical sizes (gc bounds stored state at 40 windows).
  std::uint32_t window = 0;
  for (; window < 100; ++window) {
    publish_window(window);
    sim.run_until(sim::SimTime::ms(200) * (window + 1));
  }

  BufferPool& pool = BufferPool::local();
  const auto allocs_before = pool.stats().chunk_allocs;
  const auto hits_before = pool.stats().pool_hits;
  for (; window < 200; ++window) {
    publish_window(window);
    sim.run_until(sim::SimTime::ms(200) * (window + 1));
  }
  const auto new_allocs = pool.stats().chunk_allocs - allocs_before;
  const auto new_hits = pool.stats().pool_hits - hits_before;
  EXPECT_GT(new_hits, 1000u);  // the wire path really is pool-backed
  EXPECT_LT(new_allocs * 100, new_hits)
      << "steady-state wire traffic must overwhelmingly recycle pooled chunks";
  std::uint64_t delivered = 0;
  for (const auto& g : nodes) delivered += g->stats().events_delivered;
  EXPECT_GE(delivered, 200u * 4u);  // the traffic actually flowed
}

}  // namespace
}  // namespace hg::net
