#include "net/fabric.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hg::net {

namespace {
constexpr std::uint64_t kFabricStream = 0x4e455446;    // "NETF"
constexpr std::uint64_t kTiebreakStream = 0x54424b53;  // "TBKS"
constexpr std::uint64_t kSenderStream = 0x534e4452;    // "SNDR"
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
}  // namespace

NetworkFabric::NetworkFabric(sim::ShardedEngine& engine, std::unique_ptr<LatencyModel> latency,
                             std::unique_ptr<LossModel> loss, FabricConfig config)
    : engine_(engine),
      latency_(std::move(latency)),
      loss_(std::move(loss)),
      config_(config),
      rng_(engine.make_rng(kFabricStream)) {
  HG_ASSERT(latency_ != nullptr);
  HG_ASSERT(loss_ != nullptr);
  HG_ASSERT_MSG(engine.partitions() == 1 || latency_->min_delay() >= engine.epoch(),
                "latency floor below the engine's epoch width breaks the superstep "
                "delivery invariant");
  parts_.reserve(engine.partitions());
  for (std::uint32_t p = 0; p < engine.partitions(); ++p) {
    parts_.emplace_back(&engine.sim_of(p));
  }
  tiebreak_salt_ = engine.make_rng(kTiebreakStream).next();
  sender_seed_base_ = engine.make_rng(kSenderStream).next();
  engine.set_bridge(this);
}

NetworkFabric::Shard::Shard() {
  // Reserve up front: UploadLink addresses must never move (pending transmit
  // events point at them), and SoA vectors must not reallocate mid-run.
  links.reserve(kShardSize);
  receive.reserve(kShardSize);
  meters.reserve(kShardSize);
  alive.reserve(kShardSize);
  rngs.reserve(kShardSize);
  xmit_seq.reserve(kShardSize);
}

void NetworkFabric::register_node(NodeId id, BitRate upload_capacity, ReceiveFn receive) {
  HG_ASSERT_MSG(id.value() == node_count_,
                "register nodes with consecutive ids from 0 (shards index by id)");
  if (id.value() / kShardSize == shards_.size()) shards_.push_back(std::make_unique<Shard>());
  Shard& s = *shards_.back();
  // Node_count_ is bumped after sim_of_node (it asserts against the
  // engine's node table, which already covers this id).
  s.links.emplace_back(engine_.sim_of_node(id.value()), upload_capacity, config_.discipline,
                       [this](Datagram&& d) { on_wire(std::move(d)); });
  s.receive.push_back(std::move(receive));
  s.meters.emplace_back();
  s.alive.push_back(1);
  if (sender_streams()) {
    // One loss+latency stream per sender node, a pure function of (run seed,
    // node id): partition count and placement cannot perturb any draw.
    std::uint64_t state = sender_seed_base_ ^ (kGolden * (id.value() + 1));
    s.rngs.emplace_back(splitmix64(state));
    s.xmit_seq.push_back(0);
  }
  ++node_count_;
}

void NetworkFabric::send(NodeId src, NodeId dst, MsgClass cls, BufferRef bytes, ChunkRef body,
                         std::uint32_t phantom_bytes) {
  HG_ASSERT_MSG(static_cast<bool>(bytes), "send requires an encoded message");
  Shard& s = shard(src);
  const std::size_t i = index_in_shard(src);
  if (s.alive[i] == 0) return;
  HG_ASSERT_MSG(src != dst, "self-sends indicate a peer-selection bug");
  Datagram d{src, dst, cls, phantom_bytes, std::move(bytes), std::move(body)};
  s.meters[i].on_offered(cls, d.wire_bytes());
  s.links[i].enqueue(std::move(d));
}

std::uint64_t NetworkFabric::cross_tiebreak(NodeId src, NodeId dst, std::uint64_t seq) const {
  std::uint64_t state = tiebreak_salt_ ^ (static_cast<std::uint64_t>(src.value()) << 32) ^
                        static_cast<std::uint64_t>(dst.value()) ^
                        (seq * 0x2545f4914f6cdd1dull);
  return splitmix64(state);
}

void NetworkFabric::on_wire(Datagram&& d) {
  // The datagram has fully left the sender: this is what "used upload
  // bandwidth" means (Fig. 4), loss or not.
  shard(d.src).meters[index_in_shard(d.src)].on_sent(d.cls, d.wire_bytes());
  if (!sender_streams()) {
    // Sequential semantics (P == 1: everything is local, the shared stream
    // draws in event order). Loss is evaluated when the datagram leaves the
    // sender.
    Partition& part = parts_[0];
    if (loss_->lost(d.src, d.dst, rng_)) {
      ++part.lost;
      shard(d.src).meters[index_in_shard(d.src)].on_dropped_in_flight(d.wire_bytes());
      return;
    }
    const sim::SimTime delay = latency_->sample(d.src, d.dst, rng_);
    part.sim->after(delay, [this, d = std::move(d)]() { deliver(d, parts_[0]); });
    return;
  }

  // P >= 2: this runs on the *sender's* partition (the upload link
  // schedules its transmit completions there). Loss and latency draw from
  // the sender node's private stream, and the send sequence number counts
  // per sender — both functions of the run alone, so every partition layout
  // produces the same draws and the same delivery keys.
  const std::uint32_t sp = engine_.partition_of(d.src.value());
  Partition& part = parts_[sp];
  Shard& ss = shard(d.src);
  const std::size_t si = index_in_shard(d.src);
  const std::uint64_t seq = ss.xmit_seq[si]++;
  if (loss_->lost(d.src, d.dst, ss.rngs[si])) {
    ++part.lost;
    ss.meters[si].on_dropped_in_flight(d.wire_bytes());
    return;
  }
  const sim::SimTime delay = latency_->sample(d.src, d.dst, ss.rngs[si]);
  // Filter sends to already-crashed destinations *after* the draws (stream
  // consumption must not depend on liveness). Crash-stop: a destination dead
  // now is dead at delivery, so this drop is exactly the delivery-time drop
  // — no counter or meter ever sees such a datagram. Alive flags only change
  // at barriers, so the cross-partition read is race-free.
  if (shard(d.dst).alive[index_in_shard(d.dst)] == 0) {
    ++part.filtered_dead;
    return;
  }
  const std::uint64_t tb = cross_tiebreak(d.src, d.dst, seq);
  const std::uint32_t dp = engine_.partition_of(d.dst.value());
  if (dp == sp) {
    ++part.local_datagrams;
    // Keyed by the same tiebreak an exchange import would carry: same-time
    // arrivals at one node order identically whether the sender is co-located
    // or remote.
    part.sim->after(delay, [this, d = std::move(d)]() { deliver_parallel(d); }, tb);
    return;
  }
  ++part.xpart_datagrams;
  part.xpart_bytes += d.bytes.size() + d.body.size();
  part.outbox.push_back(OutMsg{std::move(d), part.sim->now() + delay, tb, dp});
}

void NetworkFabric::deliver(const Datagram& d, Partition& part) {
  Shard& r = shard(d.dst);
  const std::size_t i = index_in_shard(d.dst);
  if (r.alive[i] == 0) return;  // crashed while in flight
  ++part.delivered;
  r.meters[i].on_received(d.cls, d.wire_bytes());
  if (r.receive[i]) r.receive[i](d);
}

void NetworkFabric::deliver_parallel(const Datagram& d) {
  deliver(d, parts_[engine_.partition_of(d.dst.value())]);
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
    dst.sim->at(m.arrive, [this, c = std::move(copy)]() { deliver_parallel(c); }, m.tiebreak);
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
  Shard& s = shard(id);
  const std::size_t i = index_in_shard(id);
  s.alive[i] = 0;
  s.links[i].shutdown();
  s.receive[i] = nullptr;
}

}  // namespace hg::net
