// The simulated datagram network connecting all nodes.
//
// send() pushes a datagram through the sender's upload link (rate limiter),
// then applies the loss model and the latency model, and finally delivers to
// the destination's receive callback — unless either endpoint has crashed.
// Downlinks are unconstrained, matching the paper ("download capabilities
// are much higher than upload ones"; only upload is capped).
//
// Storage is sharded struct-of-arrays: nodes live in fixed-capacity shards
// of parallel vectors (alive flags, meters, upload links, receive hooks)
// rather than one heap Entry per node. Registering node 100000 never moves
// node 0 (UploadLink schedules events against its own address, so element
// addresses must be stable), there is no per-node unique_ptr hop on the
// delivery hot path, and each per-field array stays dense — the alive check
// and meter bump of a delivery touch two small arrays instead of a scattered
// 100-byte Entry.
//
// A sim::ShardedEngine drives the fabric, one Simulator per partition. The
// partition count picks one of two ordering rules:
//  * one partition (P == 1) — every send is local. Loss and latency draw
//    from one shared stream in event order, and same-time deliveries run in
//    scheduling order: the sequential semantics the recorded figure outputs
//    and digests pin.
//  * P >= 2 — loss and latency draw from *per-sender-node* streams (seeded
//    from the run seed and the node id alone), send-order tiebreaks count
//    per sender, and same-time deliveries are keyed by the tiebreak: every
//    random draw and every event ordering becomes a function of the run
//    seed and node ids — never of the partition layout — so any partition
//    count >= 2 or placement produces bit-identical results.
//
//    Intra-partition sends go straight to the local event queue;
//    cross-partition sends wait in the sender partition's outbox until the
//    epoch barrier. As the engine's PartitionBridge the fabric then imports
//    them on each destination partition's worker: it gathers the outbox
//    entries addressed to that partition, sorts them by (arrival, tiebreak,
//    source partition, send order), and schedules one copy of each datagram,
//    header and body, drawn from the importer's own thread-local pool: no
//    refcount ever crosses a partition. The sender releases its outbox on its
//    own worker at the start of the next epoch.
//
//    Sends to already-crashed destinations are filtered at the sender —
//    *after* the loss/latency draws, so stream consumption never depends on
//    destination liveness (alive flags only change at barriers, making the
//    concurrent reads safe). Crash-stop means a dead destination can never
//    deliver, so filtering is invisible to every counter and meter.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "net/datagram.hpp"
#include "net/latency.hpp"
#include "net/loss.hpp"
#include "net/traffic_meter.hpp"
#include "net/upload_link.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

namespace hg::net {

using ReceiveFn = std::function<void(const Datagram&)>;

struct FabricConfig {
  QueueDiscipline discipline = QueueDiscipline::kFifo;
};

class NetworkFabric final : public sim::PartitionBridge {
 public:
  // Registers itself as `engine`'s PartitionBridge and routes each node's
  // traffic through its partition's Simulator. With P >= 2 the latency
  // model's min_delay() must be >= the engine's epoch width.
  NetworkFabric(sim::ShardedEngine& engine, std::unique_ptr<LatencyModel> latency,
                std::unique_ptr<LossModel> loss, FabricConfig config = {});

  // Nodes must be registered with consecutive ids starting at 0, at most the
  // engine's node count. The contract is enforced: registering out of order
  // aborts.
  void register_node(NodeId id, BitRate upload_capacity, ReceiveFn receive);

  // Sends `bytes` (already-encoded message) from src to dst. A payload
  // datagram passes its header as `bytes` and the sender's stored payload
  // chunk as `body`, which travels shared, not copied (see Datagram).
  // `phantom_bytes` adds wire bytes nothing stores (virtual payloads).
  void send(NodeId src, NodeId dst, MsgClass cls, BufferRef bytes, ChunkRef body = {},
            std::uint32_t phantom_bytes = 0);

  // Crash-stop: the node neither sends nor receives from now on. With
  // P >= 2 this must run from a barrier control task (workers quiescent) —
  // alive flags are read lock-free across partitions during epochs, so a
  // mid-epoch kill would be a data race. Enforced: killing while a parallel
  // phase runs aborts (ShardedEngine::quiescent).
  void kill(NodeId id);
  [[nodiscard]] bool alive(NodeId id) const {
    return shard(id).alive[index_in_shard(id)] != 0;
  }

  [[nodiscard]] BitRate capacity(NodeId id) const { return link(id).capacity(); }

  [[nodiscard]] const TrafficMeter& meter(NodeId id) const {
    return shard(id).meters[index_in_shard(id)];
  }
  [[nodiscard]] const UploadLink& link(NodeId id) const {
    return shard(id).links[index_in_shard(id)];
  }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  [[nodiscard]] std::uint64_t datagrams_lost() const;
  [[nodiscard]] std::uint64_t datagrams_delivered() const;

  // Cross-partition traffic accounting (all zero at P == 1).
  // Counts are post-loss; `filtered_dead` are sends to already-crashed
  // destinations dropped at the sender. All are functions of the run seed —
  // identical at every worker count; the local/cross split (and therefore
  // the exchange byte volume) depends on the partition layout by definition.
  struct SuperstepCounters {
    std::uint64_t local_datagrams = 0;   // delivered within the sender's partition
    std::uint64_t xpart_datagrams = 0;   // crossed a partition boundary
    std::uint64_t filtered_dead = 0;     // destination already crashed at send
    std::uint64_t xpart_exchange_bytes = 0;  // stored bytes exchanged (header + body)
  };
  [[nodiscard]] SuperstepCounters superstep_counters() const;

  // PartitionBridge (engine-driven; not for direct use).
  void begin_epoch(std::uint32_t partition) override;
  void exchange(std::uint32_t partition) override;

  // Nodes per shard. Shards are address-stable: every per-node vector inside
  // a shard is reserved to this capacity up front and never reallocates.
  static constexpr std::size_t kShardSize = 4096;

 private:
  struct Shard {
    Shard();
    std::vector<UploadLink> links;       // by value: no per-node heap object
    std::vector<ReceiveFn> receive;
    std::vector<TrafficMeter> meters;
    std::vector<std::uint8_t> alive;     // hot: checked on every delivery
    // P >= 2 only: per-sender loss/latency stream and send-order
    // counter. Seeded from (run seed, node id) — partition-layout-invariant.
    std::vector<Rng> rngs;
    std::vector<std::uint64_t> xmit_seq;
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

  [[nodiscard]] Shard& shard(NodeId id) {
    HG_ASSERT(id.value() < node_count_);
    return *shards_[id.value() / kShardSize];
  }
  [[nodiscard]] const Shard& shard(NodeId id) const {
    HG_ASSERT(id.value() < node_count_);
    return *shards_[id.value() / kShardSize];
  }
  [[nodiscard]] static std::size_t index_in_shard(NodeId id) {
    return id.value() % kShardSize;
  }
  // Per-sender streams are the P >= 2 determinism mechanism; with one
  // partition the shared-stream sequential semantics apply.
  [[nodiscard]] bool sender_streams() const { return parts_.size() > 1; }

  void on_wire(Datagram&& d);
  void deliver(const Datagram& d, Partition& part);
  void deliver_parallel(const Datagram& d);
  [[nodiscard]] std::uint64_t cross_tiebreak(NodeId src, NodeId dst,
                                             std::uint64_t seq) const;

  sim::ShardedEngine& engine_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<LossModel> loss_;
  FabricConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t node_count_ = 0;
  Rng rng_;  // P == 1: the single shared loss+latency stream
  std::vector<Partition> parts_;  // one per engine partition
  std::uint64_t tiebreak_salt_ = 0;
  std::uint64_t sender_seed_base_ = 0;  // roots the per-sender streams
};

}  // namespace hg::net
