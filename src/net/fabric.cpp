#include "net/fabric.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace hg::net {

namespace {
constexpr std::uint64_t kFabricStream = 0x4e455446;    // "NETF"
constexpr std::uint64_t kTiebreakStream = 0x54424b53;  // "TBKS"
constexpr std::uint64_t kSenderStream = 0x534e4452;    // "SNDR"
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
}  // namespace

NetworkFabric::NetworkFabric(sim::ShardedEngine& engine, std::unique_ptr<LatencyModel> latency,
                             FabricConfig config)
    : engine_(engine),
      latency_(std::move(latency)),
      config_(config),
      rng_(engine.make_rng(kFabricStream)) {
  HG_ASSERT(latency_ != nullptr);
  HG_ASSERT_MSG(config_.loss_rate >= 0.0 && config_.loss_rate <= 1.0,
                "FabricConfig::loss_rate must be within [0, 1]");
  HG_ASSERT_MSG(engine.partitions() == 1 || latency_->min_delay() >= engine.epoch(),
                "latency floor below the engine's epoch width breaks the superstep "
                "delivery invariant");
  parts_.reserve(engine.partitions());
  for (std::uint32_t p = 0; p < engine.partitions(); ++p) {
    parts_.emplace_back(&engine.sim_of(p));
  }
  // Reserved once, never exceeded (register_node asserts ids against the
  // engine's node count): pending transmit events point at the links.
  const std::size_t n = engine.node_count();
  links_.reserve(n);
  receive_.reserve(n);
  meters_.reserve(n);
  alive_.reserve(n);
  if (sender_streams()) senders_.reserve(n);
  tiebreak_salt_ = engine.make_rng(kTiebreakStream).next();
  sender_seed_base_ = engine.make_rng(kSenderStream).next();
  engine.set_bridge(this);
}

void NetworkFabric::register_node(NodeId id, BitRate upload_capacity, ReceiveFn receive) {
  HG_ASSERT_MSG(id.value() == links_.size(),
                "register nodes with consecutive ids from 0 (per-node arrays index by id)");
  // sim_of_node asserts the id against the engine's node count.
  links_.emplace_back(engine_.sim_of_node(id.value()), upload_capacity, config_.discipline,
                      [this](Datagram&& d) { on_wire(std::move(d)); });
  receive_.push_back(std::move(receive));
  meters_.emplace_back();
  alive_.push_back(1);
  if (sender_streams()) {
    std::uint64_t state = sender_seed_base_ ^ (kGolden * (id.value() + 1));
    senders_.push_back(SenderStream{Rng(splitmix64(state))});
  }
}

void NetworkFabric::send(NodeId src, NodeId dst, MsgClass cls, BufferRef bytes, ChunkRef body,
                         std::uint32_t phantom_bytes) {
  HG_ASSERT_MSG(static_cast<bool>(bytes), "send requires an encoded message");
  const std::size_t s = index(src);
  if (dst.value() >= node_count()) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "send to node %u, which is not registered (%zu nodes)",
                  dst.value(), node_count());
    hg::detail::assert_fail("dst.value() < node_count()", __FILE__, __LINE__, msg);
  }
  if (alive_[s] == 0) return;
  HG_ASSERT_MSG(src != dst, "self-sends indicate a peer-selection bug");
  Datagram d{src, dst, cls, phantom_bytes, std::move(bytes), std::move(body)};
  meters_[s].on_offered(cls, d.wire_bytes());
  links_[s].enqueue(std::move(d));
}

std::uint64_t NetworkFabric::cross_tiebreak(NodeId src, NodeId dst, std::uint64_t seq) const {
  std::uint64_t state = tiebreak_salt_ ^ (static_cast<std::uint64_t>(src.value()) << 32) ^
                        static_cast<std::uint64_t>(dst.value()) ^
                        (seq * 0x2545f4914f6cdd1dull);
  return splitmix64(state);
}

void NetworkFabric::on_wire(Datagram&& d) {
  // Runs on the sender's partition: the upload link schedules its transmit
  // completions there.
  const std::uint32_t src = d.src.value();
  const std::uint32_t sp = engine_.partition_of(src);
  Partition& part = parts_[sp];
  // The datagram has fully left the sender: this is what "used upload
  // bandwidth" means (Fig. 4), loss or not.
  meters_[src].on_sent(d.cls, d.wire_bytes());
  // The partition count's two selections (see the file comment): the stream
  // loss and latency draw from, and the same-time delivery key.
  Rng& rng = sender_streams() ? senders_[src].rng : rng_;
  const std::uint64_t key =
      sender_streams() ? cross_tiebreak(d.src, d.dst, senders_[src].sends++) : 0;
  if (rng.chance(config_.loss_rate)) {
    ++part.lost;
    meters_[src].on_dropped_in_flight(d.wire_bytes());
    return;
  }
  const sim::SimTime delay = latency_->sample(d.src, d.dst, rng);
  // After the draws, so stream consumption never depends on liveness.
  // Crash-stop: a destination dead now is dead at delivery, so no counter
  // or meter but `filtered_dead` ever sees this datagram. Alive flags only
  // change at barriers, so the cross-partition read is race-free.
  if (alive_[d.dst.value()] == 0) {
    ++part.filtered_dead;
    return;
  }
  const std::uint32_t dp = engine_.partition_of(d.dst.value());
  if (dp == sp) {
    ++part.local_datagrams;
    // Keyed like an exchange import: same-time arrivals at one node order
    // identically whether the sender is co-located or remote.
    part.sim->after(delay, [this, d = std::move(d)]() { deliver(d); }, key);
    return;
  }
  ++part.xpart_datagrams;
  part.xpart_bytes += d.bytes.size() + d.body.size();
  part.outbox.push_back(OutMsg{std::move(d), part.sim->now() + delay, key, dp});
}

void NetworkFabric::deliver(const Datagram& d) {
  const std::uint32_t dst = d.dst.value();
  if (alive_[dst] == 0) return;  // crashed while in flight
  ++parts_[engine_.partition_of(dst)].delivered;
  meters_[dst].on_received(d.cls, d.wire_bytes());
  if (receive_[dst]) receive_[dst](d);
}

void NetworkFabric::begin_epoch(std::uint32_t partition) {
  // Release last epoch's cross-partition datagrams on the owning worker:
  // their headers and bodies recycle into this thread's pool (refcounts are
  // non-atomic, so only the owning thread may drop them while the run is
  // hot). Importers copied the bytes at the barrier.
  parts_[partition].outbox.clear();
}

void NetworkFabric::exchange(std::uint32_t partition) {
  Partition& dst = parts_[partition];
  dst.import_order.clear();
  for (std::uint32_t sp = 0; sp < parts_.size(); ++sp) {
    const std::vector<OutMsg>& outbox = parts_[sp].outbox;
    for (std::uint32_t i = 0; i < outbox.size(); ++i) {
      if (outbox[i].dst_partition == partition) dst.import_order.emplace_back(sp, i);
    }
  }
  // Deterministic import order, independent of the worker count: arrival
  // time, then the seed-derived tiebreak, then source partition, then send
  // order (outbox index order is send order).
  const auto msg = [&](const std::pair<std::uint32_t, std::uint32_t>& e) -> const OutMsg& {
    return parts_[e.first].outbox[e.second];
  };
  std::sort(dst.import_order.begin(), dst.import_order.end(),
            [&msg](const auto& a, const auto& b) {
              const OutMsg& ma = msg(a);
              const OutMsg& mb = msg(b);
              if (ma.arrive != mb.arrive) return ma.arrive < mb.arrive;
              if (ma.tiebreak != mb.tiebreak) return ma.tiebreak < mb.tiebreak;
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  for (const auto& e : dst.import_order) {
    const OutMsg& m = msg(e);
    // Copy on the importing worker's thread: destination-held bytes must
    // belong to the destination's thread-local pool. The body is copied too
    // (read, never referenced): the sender's refcount stays on its worker.
    Datagram copy{m.d.src, m.d.dst, m.d.cls, m.d.phantom_bytes,
                  BufferRef::copy_of(m.d.bytes.bytes()),
                  m.d.body ? ChunkRef::copy_of(m.d.body.bytes()) : ChunkRef{}};
    dst.sim->at(m.arrive, [this, c = std::move(copy)]() { deliver(c); }, m.tiebreak);
  }
  dst.import_order.clear();
}

std::uint64_t NetworkFabric::datagrams_lost() const {
  std::uint64_t total = 0;
  for (const Partition& p : parts_) total += p.lost;
  return total;
}

std::uint64_t NetworkFabric::datagrams_delivered() const {
  std::uint64_t total = 0;
  for (const Partition& p : parts_) total += p.delivered;
  return total;
}

NetworkFabric::SuperstepCounters NetworkFabric::superstep_counters() const {
  SuperstepCounters c;
  for (const Partition& p : parts_) {
    c.local_datagrams += p.local_datagrams;
    c.xpart_datagrams += p.xpart_datagrams;
    c.filtered_dead += p.filtered_dead;
    c.xpart_exchange_bytes += p.xpart_bytes;
  }
  return c;
}

void NetworkFabric::kill(NodeId id) {
  // Alive flags are read lock-free by every partition during epochs; they may
  // only change while the workers are parked at a barrier (control tasks,
  // setup/teardown). A mid-epoch kill would be a data race AND a determinism
  // hole (delivery would depend on thread timing) — abort instead.
  HG_ASSERT_MSG(engine_.quiescent(),
                "NetworkFabric::kill outside a barrier: crash-stop must run from a "
                "control task (ShardedEngine::schedule_control), never from a "
                "worker-driven event");
  const std::size_t i = index(id);
  alive_[i] = 0;
  links_[i].shutdown();
  receive_[i] = nullptr;
}

}  // namespace hg::net
