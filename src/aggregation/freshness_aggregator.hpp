// Gossip-based capability aggregation (paper Algorithm 2, "Aggregation
// Protocol").
//
// Every aggPeriod (200 ms), a node sends the 10 freshest capability records
// it knows (always refreshing its own) to `fanout` random peers; received
// records are merged by origin, keeping the freshest per origin. The
// estimate of the system-wide average capability b̄ is the mean over all
// non-expired records. Expiry makes the estimate track churn: records of
// crashed nodes age out and b̄ re-converges to the surviving population.
//
// Cost note: the paper quotes ~1 KB/s for this protocol, which corresponds
// to one partner per period (10 records * ~20 B * 5/s); `fanout` defaults
// to 1 to match, and is configurable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "gossip/messages.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace hg::aggregation {

// Anything that can answer "what is the average capability right now".
class CapabilityEstimator {
 public:
  virtual ~CapabilityEstimator() = default;
  [[nodiscard]] virtual double average_capability_bps() const = 0;
};

struct AggregationConfig {
  sim::SimTime period = sim::SimTime::ms(200);  // > 0
  std::size_t records_per_gossip = 10;  // "the 10 freshest values"
  std::size_t fanout = 1;               // partners per period (see cost note)
  sim::SimTime record_expiry = sim::SimTime::sec(30.0);
  // Cap on tracked origins (0 = unlimited, the paper's behaviour). At 100k
  // nodes an uncapped table converges on every-origin-everywhere — O(N) per
  // node — while the b̄ estimate needs only a running sample of the
  // population; when full, a new origin evicts the stalest record (ties
  // broken by origin id) or is dropped if it is the stalest itself.
  std::size_t max_records = 0;
};

class FreshnessAggregator final : public CapabilityEstimator {
 public:
  FreshnessAggregator(sim::Simulator& simulator, net::NetworkFabric& fabric,
                      membership::LocalView& view, NodeId self, BitRate own_capability,
                      AggregationConfig config);

  void start();
  void stop();

  // Handles an incoming kAggregation datagram.
  void on_datagram(const net::Datagram& d);

  // The node's capability changed (e.g., user reconfigured the cap).
  void set_own_capability(BitRate capability) { own_capability_ = capability; }
  [[nodiscard]] BitRate own_capability() const { return own_capability_; }

  // Mean capability over own + all known, non-expired records. Before any
  // record arrives this is just the node's own capability — HEAP then
  // behaves like standard gossip until the estimate warms up.
  [[nodiscard]] double average_capability_bps() const override;

  [[nodiscard]] std::size_t known_origins() const { return records_.size(); }

  struct Stats {
    std::uint64_t gossips_sent = 0;
    std::uint64_t records_merged = 0;
    std::uint64_t records_stale_dropped = 0;
    // Undecodable datagrams, plus records skipped because their origin is
    // not a registered node, their stamp lies after the receiver's now, or
    // their capability is negative or above BitRate::unlimited().
    std::uint64_t malformed = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void gossip_round();
  // Keep `freshest_` in step with a record leaving or entering the table.
  void unindex(const gossip::CapabilityRecord& old);
  void index(const gossip::CapabilityRecord& rec);

  sim::Simulator& sim_;
  net::NetworkFabric& fabric_;
  membership::LocalView& view_;
  NodeId self_;
  BitRate own_capability_;
  AggregationConfig config_;
  Rng rng_;

  // Freshest record per origin (self excluded; own value is implicit), kept
  // as a flat map: a vector sorted by origin id. The table is scanned on
  // every estimate read (expiry) and every capped eviction (stalest record)
  // — with a hash container those visits run in bucket-layout order, which
  // is libstdc++-internal and feeds straight into which records survive;
  // id-sorted storage makes every scan platform-independent (and the
  // determinism linter rejects unordered containers tree-wide). Lookup is
  // O(log n); the O(n) insert memmove is bounded by max_records at scale.
  std::vector<gossip::CapabilityRecord> records_;  // sorted by origin id
  // The table's records_per_gossip - 1 freshest records (the whole table
  // while it holds fewer), ordered by measured_at descending, then origin
  // ascending: what a round sends once the table outgrows one gossip. Each
  // merge and eviction updates it in O(records_per_gossip), so a round
  // reads k records, not the table. Reserved at the first merge; it never
  // grows past that.
  std::vector<gossip::CapabilityRecord> freshest_;
  sim::EventHandle timer_;
  std::vector<NodeId> targets_scratch_;
  Stats stats_;
};

}  // namespace hg::aggregation
