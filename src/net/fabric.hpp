// The simulated datagram network connecting all nodes.
//
// Every datagram takes one path. send() queues it on the sender's upload
// link (rate limiter). When its last bit has left the sender, on_wire()
// meters it as sent, draws loss (FabricConfig::loss_rate) and latency,
// drops it if the destination has crashed, and schedules its delivery to
// the destination's receive callback. Downlinks are unconstrained, matching
// the paper ("download capabilities are much higher than upload ones"; only
// upload is capped).
//
// Per-node state (upload links, receive hooks, meters, alive flags) lives in
// flat vectors indexed by node id, each reserved once to the engine's node
// count: UploadLink schedules events against its own address, so no vector
// may ever reallocate.
//
// A sim::ShardedEngine drives the fabric, one Simulator per partition. The
// partition count selects only two things:
//  * the stream loss and latency draw from. With one partition (P == 1) it is
//    one shared stream, drawn in event order. With P >= 2 each sender node
//    has its own stream, seeded from the run seed and the node id alone;
//  * the key that orders same-time deliveries at a node. With P == 1 it is 0,
//    so they run in scheduling order. With P >= 2 it is a seed-derived
//    tiebreak of (sender, destination, the sender's send count).
// P == 1 is the sequential semantics the recorded figure outputs and digests
// pin. With P >= 2 every random draw and every event ordering is a function
// of the run seed and node ids, never of the partition layout, so any
// partition count >= 2 or placement produces bit-identical results.
//
// Sends to already-crashed destinations are dropped at the sender, *after*
// the loss/latency draws, so stream consumption never depends on destination
// liveness (alive flags only change at barriers, which makes the
// cross-partition read safe). Crash-stop means such a datagram could never
// deliver, so the drop saves only its delivery event; `filtered_dead` counts
// it.
//
// A datagram to a node on the sender's partition goes straight to the local
// event queue. One to another partition waits in the sender partition's
// outbox until the epoch barrier. As the engine's PartitionBridge the fabric
// then imports them on each destination partition's worker: it gathers the
// outbox entries addressed to that partition, sorts them by (arrival,
// tiebreak, source partition, send order), and schedules one copy of each
// datagram, header and body, drawn from the importer's own thread-local pool:
// no refcount ever crosses a partition. The sender releases its outbox on its
// own worker at the start of the next epoch.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "net/datagram.hpp"
#include "net/latency.hpp"
#include "net/traffic_meter.hpp"
#include "net/upload_link.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

namespace hg::net {

using ReceiveFn = std::function<void(const Datagram&)>;

struct FabricConfig {
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  // Independent per-datagram loss probability, within [0, 1].
  double loss_rate = 0.0;
};

class NetworkFabric final : public sim::PartitionBridge {
 public:
  // Registers itself as `engine`'s PartitionBridge and routes each node's
  // traffic through its partition's Simulator. With P >= 2 the latency
  // model's min_delay() must be >= the engine's epoch width.
  NetworkFabric(sim::ShardedEngine& engine, std::unique_ptr<LatencyModel> latency,
                FabricConfig config = {});

  // Nodes must be registered with consecutive ids starting at 0, at most the
  // engine's node count. The contract is enforced: registering out of order
  // aborts.
  void register_node(NodeId id, BitRate upload_capacity, ReceiveFn receive);

  // Sends `bytes` (already-encoded message) from src to dst, both registered.
  // A payload datagram passes its header as `bytes` and the sender's stored
  // payload chunk as `body`, which travels shared, not copied (see Datagram).
  // `phantom_bytes` adds wire bytes nothing stores (virtual payloads).
  void send(NodeId src, NodeId dst, MsgClass cls, BufferRef bytes, ChunkRef body = {},
            std::uint32_t phantom_bytes = 0);

  // Crash-stop: the node neither sends nor receives from now on. With
  // P >= 2 this must run from a barrier control task (workers quiescent) —
  // alive flags are read lock-free across partitions during epochs, so a
  // mid-epoch kill would be a data race. Enforced: killing while a parallel
  // phase runs aborts (ShardedEngine::quiescent).
  void kill(NodeId id);
  [[nodiscard]] bool alive(NodeId id) const { return alive_[index(id)] != 0; }

  [[nodiscard]] BitRate capacity(NodeId id) const { return link(id).capacity(); }

  [[nodiscard]] const TrafficMeter& meter(NodeId id) const { return meters_[index(id)]; }
  [[nodiscard]] const UploadLink& link(NodeId id) const { return links_[index(id)]; }
  [[nodiscard]] std::size_t node_count() const { return links_.size(); }

  [[nodiscard]] std::uint64_t datagrams_lost() const;
  [[nodiscard]] std::uint64_t datagrams_delivered() const;

  // Routing accounting. Counts are post-loss: every datagram that survived
  // loss is exactly one of local, cross-partition, or `filtered_dead` (a
  // send to an already-crashed destination, dropped at the sender). All are
  // functions of the run seed, identical at every worker count; the
  // local/cross split (and therefore the exchange byte volume) depends on
  // the partition layout by definition. At P == 1 every delivered send is
  // local.
  struct SuperstepCounters {
    std::uint64_t local_datagrams = 0;   // scheduled within the sender's partition
    std::uint64_t xpart_datagrams = 0;   // crossed a partition boundary
    std::uint64_t filtered_dead = 0;     // destination already crashed at send
    std::uint64_t xpart_exchange_bytes = 0;  // stored bytes exchanged (header + body)
  };
  [[nodiscard]] SuperstepCounters superstep_counters() const;

  // PartitionBridge (engine-driven; not for direct use).
  void begin_epoch(std::uint32_t partition) override;
  void exchange(std::uint32_t partition) override;

 private:
  // P >= 2 only: a sender node's loss/latency stream and send count, seeded
  // from (run seed, node id), so partition layout cannot perturb any draw.
  struct SenderStream {
    Rng rng;
    std::uint64_t sends = 0;
  };

  // A cross-partition datagram parked until the next epoch barrier.
  struct OutMsg {
    Datagram d;
    sim::SimTime arrive;
    std::uint64_t tiebreak;      // seed-derived; independent of worker count
    std::uint32_t dst_partition;
  };

  // Everything one partition touches while its worker runs an epoch. Loss,
  // latency jitter, counters, and the outbox are partition-private, so no
  // state is shared between concurrently running partitions. Cache-line
  // aligned so neighbouring partitions' hot counters never share a line.
  struct alignas(64) Partition {
    explicit Partition(sim::Simulator* s) : sim(s) {}
    sim::Simulator* sim;
    std::uint64_t lost = 0;
    std::uint64_t delivered = 0;
    std::uint64_t local_datagrams = 0;
    std::uint64_t xpart_datagrams = 0;
    std::uint64_t filtered_dead = 0;
    std::uint64_t xpart_bytes = 0;
    std::vector<OutMsg> outbox;
    // Exchange-side scratch (owned by this partition's worker): (source
    // partition, outbox index) pairs. Indices, not pointers — the canonical
    // import order must never rest on address comparisons (the determinism
    // linter's pointer-order rule enforces this tree-wide).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> import_order;
  };

  // Per-node vector index of a registered node.
  [[nodiscard]] std::size_t index(NodeId id) const {
    HG_ASSERT(id.value() < links_.size());
    return id.value();
  }
  // Per-sender streams are the P >= 2 determinism mechanism; with one
  // partition the shared-stream sequential semantics apply.
  [[nodiscard]] bool sender_streams() const { return parts_.size() > 1; }

  void on_wire(Datagram&& d);
  void deliver(const Datagram& d);
  [[nodiscard]] std::uint64_t cross_tiebreak(NodeId src, NodeId dst,
                                             std::uint64_t seq) const;

  sim::ShardedEngine& engine_;
  std::unique_ptr<LatencyModel> latency_;
  FabricConfig config_;
  std::vector<Partition> parts_;  // one per engine partition
  // Per node, indexed by id.
  std::vector<UploadLink> links_;  // by value: no per-node heap object
  std::vector<ReceiveFn> receive_;
  std::vector<TrafficMeter> meters_;
  std::vector<std::uint8_t> alive_;  // hot: checked on every send and delivery
  std::vector<SenderStream> senders_;  // P >= 2 only
  Rng rng_;  // P == 1: the one shared loss+latency stream
  std::uint64_t tiebreak_salt_ = 0;
  std::uint64_t sender_seed_base_ = 0;  // roots the per-sender streams
};

}  // namespace hg::net
