#include "gossip/three_phase.hpp"

#include <gtest/gtest.h>

#include <set>

#include "gossip/fanout_policy.hpp"

namespace hg::gossip {
namespace {

// A small swarm of raw dissemination engines over an ideal-ish network.
struct Swarm {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  membership::Directory directory;
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<FixedFanout>> policies;
  std::vector<std::unique_ptr<ThreePhaseGossip>> nodes;
  std::vector<std::vector<Event>> delivered;

  explicit Swarm(std::size_t n, GossipConfig cfg = {}, double fanout = 4.0,
                 double loss = 0.0, std::uint64_t seed = 11)
      : engine(seed, n, {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(15)),
               net::FabricConfig{.loss_rate = loss}),
        directory(engine, membership::DetectionConfig{}) {
    delivered.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId id{i};
      views.push_back(directory.make_view(id));
      policies.push_back(std::make_unique<FixedFanout>(fanout));
      nodes.push_back(std::make_unique<ThreePhaseGossip>(sim, fabric, *views.back(), id, cfg,
                                                         *policies.back()));
      nodes.back()->set_deliver(
          [this, i](const Event& e) { delivered[i].push_back(e); });
      fabric.register_node(id, BitRate::unlimited(),
                           [g = nodes.back().get()](const net::Datagram& d) {
                             g->on_datagram(d);
                           });
    }
    for (auto& g : nodes) g->start();
  }

  Event make_event(std::uint32_t w, std::uint16_t i, std::size_t bytes = 64) {
    return Event{EventId{w, i},
                 net::BufferRef::copy_of(std::vector<std::uint8_t>(bytes, 0x11))};
  }
};

// Datagrams as the fabric delivers them, for injecting traffic directly.
net::Datagram datagram(std::uint32_t from, std::uint32_t to, net::MsgClass cls,
                       net::BufferRef bytes) {
  return net::Datagram{NodeId{from}, NodeId{to}, cls, 0, std::move(bytes), {}};
}

net::Datagram serve_datagram(std::uint32_t from, std::uint32_t to, const Event& event) {
  ServeDatagram wire = encode(ServeMsg{NodeId{from}, event});
  return net::Datagram{NodeId{from}, NodeId{to}, net::MsgClass::kServe, wire.phantom_bytes,
                       std::move(wire.header), std::move(wire.body)};
}

TEST(ThreePhase, SingleEventReachesEveryone) {
  Swarm s(30);
  s.nodes[0]->publish(s.make_event(0, 0));
  s.sim.run_until(sim::SimTime::sec(10));
  for (std::size_t i = 0; i < 30; ++i) {
    ASSERT_EQ(s.delivered[i].size(), 1u) << "node " << i;
    EXPECT_EQ(s.delivered[i][0].id, (EventId{0, 0}));
  }
}

TEST(ThreePhase, DeliversExactlyOncePerNode) {
  // fanout 7 > ln(25)+c: the dissemination reaches everyone w.h.p.
  Swarm s(25, GossipConfig{}, /*fanout=*/7.0);
  for (std::uint16_t k = 0; k < 20; ++k) s.nodes[0]->publish(s.make_event(0, k));
  s.sim.run_until(sim::SimTime::sec(15));
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(s.delivered[i].size(), 20u) << "node " << i;
    // No duplicates: the three-phase exchange guarantees single delivery.
    std::set<std::uint64_t> uniq;
    for (const auto& e : s.delivered[i]) uniq.insert(e.id.raw());
    EXPECT_EQ(uniq.size(), s.delivered[i].size());
  }
}

TEST(ThreePhase, PayloadsSurviveDissemination) {
  Swarm s(10);
  const std::vector<std::uint8_t> raw{1, 2, 3, 4, 5};
  s.nodes[0]->publish(Event{EventId{1, 1}, net::BufferRef::copy_of(raw)});
  s.sim.run_until(sim::SimTime::sec(5));
  for (std::size_t i = 1; i < 10; ++i) {
    ASSERT_EQ(s.delivered[i].size(), 1u);
    ASSERT_TRUE(s.delivered[i][0].payload);
    EXPECT_EQ(s.delivered[i][0].payload.to_vector(), raw);
  }
}

TEST(ThreePhase, EveryNodeStoresTheSourcesPayloadChunk) {
  // Serves forward the stored chunk itself: after any number of hops, every
  // node's store holds the one chunk the source published, never a copy.
  Swarm s(10);
  const net::BufferRef payload =
      net::BufferRef::copy_of(std::vector<std::uint8_t>(1316, 0x42));
  s.nodes[0]->publish(Event{EventId{1, 1}, payload});
  s.sim.run_until(sim::SimTime::sec(5));
  for (std::size_t i = 0; i < 10; ++i) {
    const Event* stored = s.nodes[i]->delivered_event(EventId{1, 1});
    ASSERT_NE(stored, nullptr) << "node " << i;
    EXPECT_EQ(stored->payload.data(), payload.data()) << "node " << i;
  }
  // Nothing else holds it once the datagrams are gone: the test's ref, and
  // per node its store, this harness's delivery log, and the store's lookup
  // scratch (delivered_event above).
  EXPECT_EQ(payload.ref_count(), 1u + 10u * 3u);
}

TEST(ThreePhase, InfectAndDieProposesEachIdOnce) {
  Swarm s(20);
  s.nodes[0]->publish(s.make_event(0, 0));
  s.sim.run_until(sim::SimTime::sec(10));
  // Each node proposed the id at most once per target, i.e. ids_proposed <=
  // fanout per node. Total proposals across nodes ~= n * f.
  std::uint64_t total_ids_proposed = 0;
  for (const auto& g : s.nodes) total_ids_proposed += g->stats().ids_proposed;
  EXPECT_LE(total_ids_proposed, 20u * 5u);  // fanout 4 (+rounding slack)
  EXPECT_GE(total_ids_proposed, 20u * 3u - 8u);
}

TEST(ThreePhase, RecoversFromLossViaRetransmission) {
  GossipConfig cfg;
  cfg.retransmit_period = sim::SimTime::ms(300);
  Swarm s(30, cfg, /*fanout=*/7.0, /*loss=*/0.10);
  for (std::uint16_t k = 0; k < 10; ++k) s.nodes[0]->publish(s.make_event(0, k));
  s.sim.run_until(sim::SimTime::sec(30));
  std::size_t fully = 0;
  for (std::size_t i = 0; i < 30; ++i) fully += (s.delivered[i].size() == 10);
  // With 10% loss and no retransmission many nodes would miss packets;
  // with it, (nearly) everyone converges.
  EXPECT_GE(fully, 28u);
}

TEST(ThreePhase, NoRetransmissionLeavesGaps) {
  GossipConfig cfg;
  cfg.max_retransmits = 0;
  Swarm s(30, cfg, /*fanout=*/4.0, /*loss=*/0.25, /*seed=*/13);
  for (std::uint16_t k = 0; k < 10; ++k) s.nodes[0]->publish(s.make_event(0, k));
  s.sim.run_until(sim::SimTime::sec(30));
  std::size_t missing = 0;
  for (std::size_t i = 0; i < 30; ++i) missing += (s.delivered[i].size() < 10);
  EXPECT_GT(missing, 0u);  // heavy loss + no retries must lose something
}

TEST(ThreePhase, ShouldRequestVetoSuppressesDelivery) {
  Swarm s(10);
  // Node 5 refuses everything from window 0.
  s.nodes[5]->set_should_request([](EventId id) { return id.window() != 0; });
  s.nodes[0]->publish(s.make_event(0, 0));
  s.nodes[0]->publish(s.make_event(1, 0));
  s.sim.run_until(sim::SimTime::sec(10));
  ASSERT_EQ(s.delivered[5].size(), 1u);
  EXPECT_EQ(s.delivered[5][0].id.window(), 1u);
  EXPECT_GT(s.nodes[5]->stats().declined_requests, 0u);
}

TEST(ThreePhase, CancelWindowStopsFutureRequests) {
  Swarm s(10);
  s.nodes[3]->cancel_window_requests(0);
  s.nodes[0]->publish(s.make_event(0, 0));
  s.sim.run_until(sim::SimTime::sec(10));
  EXPECT_TRUE(s.delivered[3].empty());
  for (std::size_t i = 1; i < 10; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(s.delivered[i].size(), 1u) << "node " << i;
  }
}

TEST(ThreePhase, SourceImmediatePublishSkipsBatching) {
  Swarm s(10);
  s.nodes[0]->publish(s.make_event(0, 0));
  // Proposes must be out before the first periodic round (<= 200 ms).
  s.sim.run_until(sim::SimTime::ms(1));
  EXPECT_GT(s.nodes[0]->stats().proposes_sent, 0u);
}

TEST(ThreePhase, GarbageCollectionBoundsState) {
  GossipConfig cfg;
  cfg.gc_window_horizon = 3;
  Swarm s(5, cfg);
  for (std::uint32_t w = 0; w < 10; ++w) {
    s.nodes[0]->publish(s.make_event(w, 0));
    s.sim.run_until(sim::SimTime::sec(1 + w));
  }
  s.sim.run_until(sim::SimTime::sec(30));
  // Horizon 3 behind newest window 9: windows < 6 are collected.
  EXPECT_FALSE(s.nodes[0]->has_delivered(EventId{0, 0}));
  EXPECT_FALSE(s.nodes[0]->has_delivered(EventId{5, 0}));
  EXPECT_TRUE(s.nodes[0]->has_delivered(EventId{6, 0}));
  EXPECT_TRUE(s.nodes[0]->has_delivered(EventId{9, 0}));
}

TEST(ThreePhase, RetransmitRetriesAlternateProposerUntilCancelled) {
  GossipConfig cfg;
  cfg.retransmit_period = sim::SimTime::ms(100);
  Swarm s(4, cfg);
  // Nodes 1 and 2 both propose (0,0) to node 3; nobody ever serves it.
  const auto inject_propose = [&](std::uint32_t from) {
    s.nodes[3]->on_datagram(datagram(from, 3, net::MsgClass::kPropose,
                                     encode(ProposeMsg{NodeId{from}, {EventId{0, 0}}})));
  };
  inject_propose(1);
  inject_propose(2);
  EXPECT_EQ(s.nodes[3]->stats().requests_sent, 1u);  // requested from the first proposer
  // First timeout: the retry must go to the *other* proposer.
  s.sim.run_until(sim::SimTime::ms(150));
  EXPECT_EQ(s.nodes[3]->stats().requests_sent, 2u);
  EXPECT_GE(s.nodes[3]->retransmit_stats().retries_fired, 1u);
  // cancel_window_requests stops all further retries for the window.
  s.nodes[3]->cancel_window_requests(0);
  const auto requests_before = s.nodes[3]->stats().requests_sent;
  const auto retries_before = s.nodes[3]->retransmit_stats().retries_fired;
  s.sim.run_until(sim::SimTime::sec(20));
  EXPECT_EQ(s.nodes[3]->stats().requests_sent, requests_before);
  EXPECT_EQ(s.nodes[3]->retransmit_stats().retries_fired, retries_before);
  EXPECT_FALSE(s.nodes[3]->has_delivered(EventId{0, 0}));
  // A late re-propose of the cancelled window must not re-request either.
  inject_propose(1);
  EXPECT_EQ(s.nodes[3]->stats().requests_sent, requests_before);
}

TEST(ThreePhase, DuplicateServesDeliverOnceAndProposeOnce) {
  // "Infect and die" under retransmission: a duplicate serve (e.g. a retried
  // request answered twice) must neither re-deliver nor re-propose the id.
  Swarm s(4);
  const auto inject_propose = [&](std::uint32_t from) {
    s.nodes[3]->on_datagram(datagram(from, 3, net::MsgClass::kPropose,
                                     encode(ProposeMsg{NodeId{from}, {EventId{0, 0}}})));
  };
  const auto inject_serve = [&](std::uint32_t from) {
    const Event ev{EventId{0, 0},
                   net::BufferRef::copy_of(std::vector<std::uint8_t>(64, 0x11))};
    s.nodes[3]->on_datagram(serve_datagram(from, 3, ev));
  };
  inject_propose(1);
  inject_propose(2);
  inject_serve(1);
  EXPECT_EQ(s.nodes[3]->retransmit_stats().cancelled_by_serve, 1u);
  inject_serve(2);  // the duplicate
  EXPECT_EQ(s.nodes[3]->stats().events_delivered, 1u);
  EXPECT_EQ(s.nodes[3]->stats().duplicate_serves, 1u);
  // The id is proposed in exactly one round (to <= 3 peers at fanout 4).
  s.sim.run_until(sim::SimTime::sec(2));
  const auto proposed = s.nodes[3]->stats().ids_proposed;
  EXPECT_GE(proposed, 1u);
  EXPECT_LE(proposed, 3u);
  s.sim.run_until(sim::SimTime::sec(10));
  EXPECT_EQ(s.nodes[3]->stats().ids_proposed, proposed);  // never re-proposed
}

TEST(ThreePhase, BatchedServeAnswersMultiIdRequestInOneBuffer) {
  Swarm s(2);
  // Node 0 holds three events of one window, published in one round.
  for (std::uint16_t k = 0; k < 3; ++k) s.nodes[0]->publish(s.make_event(5, k));
  // Node 1 requests all three in a single Request datagram.
  s.nodes[0]->on_datagram(
      datagram(1, 0, net::MsgClass::kRequest,
               encode(RequestMsg{NodeId{1}, {EventId{5, 0}, EventId{5, 1}, EventId{5, 2}}})));
  EXPECT_EQ(s.nodes[0]->stats().serves_sent, 3u);   // one datagram per event...
  EXPECT_EQ(s.nodes[0]->stats().serve_batches, 1u); // ...sharing one pooled buffer
  s.sim.run_until(sim::SimTime::sec(5));
  EXPECT_EQ(s.delivered[1].size(), 3u);
}

TEST(ThreePhase, ProposeWithOutOfRangePacketIndexIsMalformed) {
  Swarm s(4);
  // Index 110 == packets-per-window: one past the last valid slot. Mixed
  // with a valid id: only the valid one is requested, the bad one counts
  // as malformed instead of materializing ring state.
  const std::uint16_t ppw =
      static_cast<std::uint16_t>(s.nodes[3]->config().packets_per_window);
  s.nodes[3]->on_datagram(
      datagram(1, 3, net::MsgClass::kPropose,
               encode(ProposeMsg{NodeId{1}, {EventId{0, ppw}, EventId{0, 0}, EventId{0, 9999}}})));
  EXPECT_EQ(s.nodes[3]->stats().malformed, 2u);
  EXPECT_EQ(s.nodes[3]->stats().requests_sent, 1u);
  s.sim.run_until(sim::SimTime::sec(20));
  EXPECT_FALSE(s.nodes[3]->has_delivered(EventId{0, ppw}));
  // The malformed id never armed a retransmit timer either.
  EXPECT_EQ(s.nodes[3]->retransmit_stats().timers_started, 1u);
}

TEST(ThreePhase, TrailingBytesAreMalformed) {
  Swarm s(4);
  // A valid propose and request, each with one byte appended.
  auto propose = encode(ProposeMsg{NodeId{1}, {EventId{0, 0}}}).to_vector();
  auto request = encode(RequestMsg{NodeId{2}, {EventId{0, 0}}}).to_vector();
  propose.push_back(0);
  request.push_back(0);
  s.nodes[0]->publish(s.make_event(0, 0));
  const auto serves_before = s.nodes[0]->stats().serves_sent;
  s.nodes[3]->on_datagram(
      datagram(1, 3, net::MsgClass::kPropose, net::BufferRef::copy_of(propose)));
  s.nodes[0]->on_datagram(
      datagram(2, 0, net::MsgClass::kRequest, net::BufferRef::copy_of(request)));
  EXPECT_EQ(s.nodes[3]->stats().malformed, 1u);
  EXPECT_EQ(s.nodes[3]->stats().requests_sent, 0u);
  EXPECT_EQ(s.nodes[0]->stats().malformed, 1u);
  EXPECT_EQ(s.nodes[0]->stats().serves_sent, serves_before);
}

TEST(ThreePhase, ForgedSenderIsMalformed) {
  // Requests and serves answer a message's sender field. Node 1 forges it
  // in every message kind: once naming a node that does not exist, once
  // naming the receiver itself. Answering either would address a datagram
  // the fabric cannot send.
  Swarm s(4);
  s.nodes[0]->publish(s.make_event(0, 0));
  const auto serves_before = s.nodes[0]->stats().serves_sent;
  for (const std::uint32_t forged : {999u, 2u}) {
    s.nodes[2]->on_datagram(datagram(1, 2, net::MsgClass::kPropose,
                                     encode(ProposeMsg{NodeId{forged}, {EventId{0, 1}}})));
  }
  for (const std::uint32_t forged : {999u, 0u}) {
    s.nodes[0]->on_datagram(datagram(1, 0, net::MsgClass::kRequest,
                                     encode(RequestMsg{NodeId{forged}, {EventId{0, 0}}})));
  }
  for (const std::uint32_t forged : {999u, 3u}) {
    ServeDatagram wire = encode(ServeMsg{NodeId{forged}, s.make_event(0, 2)});
    s.nodes[3]->on_datagram(net::Datagram{NodeId{1}, NodeId{3}, net::MsgClass::kServe,
                                          wire.phantom_bytes, std::move(wire.header),
                                          std::move(wire.body)});
  }
  EXPECT_EQ(s.nodes[2]->stats().malformed, 2u);
  EXPECT_EQ(s.nodes[2]->stats().requests_sent, 0u);
  EXPECT_EQ(s.nodes[0]->stats().malformed, 2u);
  EXPECT_EQ(s.nodes[0]->stats().serves_sent, serves_before);
  EXPECT_EQ(s.nodes[3]->stats().malformed, 2u);
  EXPECT_FALSE(s.nodes[3]->has_delivered(EventId{0, 2}));
  // The honest dissemination of (0,0) carries on.
  s.sim.run_until(sim::SimTime::sec(5));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(s.nodes[i]->has_delivered(EventId{0, 0})) << i;
}

TEST(ThreePhase, ServeWithOutOfRangePacketIndexIsMalformed) {
  Swarm s(2);
  const std::uint16_t ppw =
      static_cast<std::uint16_t>(s.nodes[1]->config().packets_per_window);
  const Event ev{EventId{0, ppw},
                 net::BufferRef::copy_of(std::vector<std::uint8_t>(64, 0x22))};
  s.nodes[1]->on_datagram(serve_datagram(0, 1, ev));
  EXPECT_EQ(s.nodes[1]->stats().malformed, 1u);
  EXPECT_EQ(s.nodes[1]->stats().events_delivered, 0u);
  EXPECT_FALSE(s.nodes[1]->has_delivered(EventId{0, ppw}));
}

TEST(ThreePhase, ProposeBelowGcCutoffIsMalformed) {
  GossipConfig cfg;
  cfg.gc_window_horizon = 3;
  Swarm s(2, cfg);
  for (std::uint32_t w = 0; w < 10; ++w) {
    s.nodes[0]->publish(s.make_event(w, 0));
    s.sim.run_until(sim::SimTime::sec(1 + w));
  }
  // Newest window 9, horizon 3: windows < 6 are gc'd on node 0.
  ASSERT_FALSE(s.nodes[0]->has_delivered(EventId{0, 0}));
  const auto requests_before = s.nodes[0]->stats().requests_sent;
  s.nodes[0]->on_datagram(datagram(1, 0, net::MsgClass::kPropose,
                                   encode(ProposeMsg{NodeId{1}, {EventId{0, 1}}})));
  EXPECT_EQ(s.nodes[0]->stats().malformed, 1u);
  EXPECT_EQ(s.nodes[0]->stats().requests_sent, requests_before);
}

TEST(ThreePhase, StaleServeDoesNotResurrectGcdEvent) {
  GossipConfig cfg;
  cfg.gc_window_horizon = 3;
  Swarm s(2, cfg);
  for (std::uint32_t w = 0; w < 10; ++w) {
    s.nodes[0]->publish(s.make_event(w, 0));
    s.sim.run_until(sim::SimTime::sec(1 + w));
  }
  s.sim.run_until(sim::SimTime::sec(30));
  ASSERT_FALSE(s.nodes[0]->has_delivered(EventId{0, 0}));
  const auto delivered_before = s.nodes[0]->stats().events_delivered;
  const auto proposed_before = s.nodes[0]->stats().ids_proposed;
  // A straggler re-serves the long-collected event. Re-inserting it would
  // resurrect gc'd state — and re-propose an id everyone forgot about.
  const Event stale{EventId{0, 0},
                    net::BufferRef::copy_of(std::vector<std::uint8_t>(64, 0x33))};
  s.nodes[0]->on_datagram(serve_datagram(1, 0, stale));
  EXPECT_EQ(s.nodes[0]->stats().malformed, 1u);
  EXPECT_EQ(s.nodes[0]->stats().events_delivered, delivered_before);
  EXPECT_FALSE(s.nodes[0]->has_delivered(EventId{0, 0}));
  s.sim.run_until(sim::SimTime::sec(40));
  EXPECT_EQ(s.nodes[0]->stats().ids_proposed, proposed_before);  // not re-proposed
}

TEST(ThreePhase, CancellingManyWindowsDoesNotAllocate) {
  Swarm s(2);
  const std::size_t idle = s.nodes[1]->state_bytes();
  // Cancel every window the request ring can address (and a stale/far one,
  // which is ignored): the flags live in the fixed ring state, so the old
  // unbounded cancelled-window set's growth is structurally impossible.
  for (std::uint32_t w = 0; w < s.nodes[1]->config().request_ring_windows(); ++w) {
    s.nodes[1]->cancel_window_requests(w);
  }
  s.nodes[1]->cancel_window_requests(1u << 20);
  EXPECT_EQ(s.nodes[1]->state_bytes(), idle);
  // And the flags actually suppress requests.
  s.nodes[1]->on_datagram(datagram(0, 1, net::MsgClass::kPropose,
                                   encode(ProposeMsg{NodeId{0}, {EventId{3, 0}}})));
  EXPECT_EQ(s.nodes[1]->stats().requests_sent, 0u);
}

TEST(ThreePhase, ParkedRoundsQuiesceWhenIdle) {
  // park_idle_rounds: no pending proposals -> no round timer at all. This is
  // what lets a partition's event queue drain to empty so the sharded
  // engine's epoch widening can fast-forward it.
  GossipConfig parked;
  parked.park_idle_rounds = true;
  Swarm s(10, parked);
  EXPECT_EQ(s.sim.run_until(sim::SimTime::sec(30)), 0u);
  EXPECT_FALSE(s.sim.next_event_time().has_value());
  // A late publish re-arms rounds on the original phase grid and still
  // disseminates to everyone.
  s.nodes[0]->publish(s.make_event(0, 0));
  s.sim.run_until(sim::SimTime::sec(40));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s.delivered[i].size(), 1u) << "node " << i;
  }
  EXPECT_FALSE(s.sim.next_event_time().has_value());  // ...and re-parks after
}

TEST(ThreePhase, ParkedRoundsMatchPeriodicTimerMessageForMessage) {
  // The parked schedule is an optimization, not a behaviour change: with the
  // same seed, every propose/request/serve and every delivery must be
  // identical to the periodic-timer schedule.
  GossipConfig periodic;
  GossipConfig parked;
  parked.park_idle_rounds = true;
  Swarm a(20, periodic, /*fanout=*/7.0);
  Swarm b(20, parked, /*fanout=*/7.0);
  for (std::uint16_t k = 0; k < 5; ++k) {
    a.nodes[0]->publish(a.make_event(0, k));
    b.nodes[0]->publish(b.make_event(0, k));
  }
  // Publish a second batch later so rounds park and re-arm in between.
  a.sim.run_until(sim::SimTime::sec(15));
  b.sim.run_until(sim::SimTime::sec(15));
  a.nodes[7]->publish(a.make_event(1, 0));
  b.nodes[7]->publish(b.make_event(1, 0));
  a.sim.run_until(sim::SimTime::sec(30));
  b.sim.run_until(sim::SimTime::sec(30));
  EXPECT_EQ(a.fabric.datagrams_delivered(), b.fabric.datagrams_delivered());
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(a.nodes[i]->stats().proposes_sent, b.nodes[i]->stats().proposes_sent) << i;
    EXPECT_EQ(a.nodes[i]->stats().requests_sent, b.nodes[i]->stats().requests_sent) << i;
    EXPECT_EQ(a.nodes[i]->stats().serves_sent, b.nodes[i]->stats().serves_sent) << i;
    ASSERT_EQ(a.delivered[i].size(), b.delivered[i].size()) << i;
    for (std::size_t k = 0; k < a.delivered[i].size(); ++k) {
      EXPECT_EQ(a.delivered[i][k].id, b.delivered[i][k].id) << i;
    }
  }
}

TEST(ThreePhase, StatsAreConsistent) {
  Swarm s(20, GossipConfig{}, /*fanout=*/7.0);
  for (std::uint16_t k = 0; k < 5; ++k) s.nodes[0]->publish(s.make_event(0, k));
  s.sim.run_until(sim::SimTime::sec(10));
  std::uint64_t serves = 0, delivered_total = 0;
  for (const auto& g : s.nodes) {
    serves += g->stats().serves_sent;
    delivered_total += g->stats().events_delivered;
  }
  // Every delivery except the publisher's own was served exactly once
  // (lossless network, no duplicate deliveries possible).
  EXPECT_EQ(delivered_total, 20u * 5u);
  EXPECT_EQ(serves, 20u * 5u - 5u);
}

}  // namespace
}  // namespace hg::gossip
