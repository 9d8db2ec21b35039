#include "aggregation/freshness_aggregator.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hg::aggregation {

using gossip::CapabilityRecord;

namespace {

// The freshness ranking: later stamp first; equal stamps break toward the
// smaller origin id, a total order, so which records propagate never
// depends on container layout or sort internals.
bool fresher(const CapabilityRecord& a, const CapabilityRecord& b) {
  if (a.measured_at != b.measured_at) return a.measured_at > b.measured_at;
  return a.origin < b.origin;
}

// The table's order.
bool origin_below(const CapabilityRecord& r, NodeId origin) { return r.origin < origin; }

}  // namespace

FreshnessAggregator::FreshnessAggregator(sim::Simulator& simulator, net::NetworkFabric& fabric,
                                         membership::LocalView& view, NodeId self,
                                         BitRate own_capability, AggregationConfig config)
    : sim_(simulator),
      fabric_(fabric),
      view_(view),
      self_(self),
      own_capability_(own_capability),
      config_(config),
      rng_(simulator.make_rng(0x41474752ULL ^ (std::uint64_t{self.value()} << 24))) {
  HG_ASSERT_MSG(config_.period > sim::SimTime::zero(),
                "AggregationConfig::period must be positive");
  HG_ASSERT_MSG(config_.records_per_gossip > 0,
                "AggregationConfig::records_per_gossip must be positive");
  // A round of more records than a receiver decodes is dropped as malformed.
  HG_ASSERT_MSG(config_.records_per_gossip <= gossip::kMaxAggregationRecords,
                "AggregationConfig::records_per_gossip exceeds gossip::kMaxAggregationRecords");
}

void FreshnessAggregator::start() {
  const auto phase = sim::SimTime::us(static_cast<std::int64_t>(
      rng_.below(static_cast<std::uint64_t>(config_.period.as_us()))));
  timer_ = sim_.every(phase, config_.period, [this]() { gossip_round(); });
}

void FreshnessAggregator::stop() { timer_.cancel(); }

void FreshnessAggregator::gossip_round() {
  // Own record first, refreshed to now (the node keeps advertising what it
  // can do). A table that fits in one gossip goes out whole, in origin
  // order; a larger one sends its index of the freshest records.
  const CapabilityRecord own{self_, own_capability_.bits_per_sec(), sim_.now()};
  const auto bytes = gossip::encode_aggregation(
      self_, own, records_.size() < config_.records_per_gossip ? records_ : freshest_);
  view_.select_nodes(config_.fanout, targets_scratch_, rng_);
  for (NodeId target : targets_scratch_) {
    fabric_.send(self_, target, net::MsgClass::kAggregation, bytes);
    ++stats_.gossips_sent;
  }
}

void FreshnessAggregator::unindex(const CapabilityRecord& old) {
  // The index holds exactly the table's records ranked at or ahead of its
  // last entry. An updated record only gets fresher and an evicted one is
  // the stalest, so an eviction reaches here only while the whole table
  // fits in the index.
  if (freshest_.empty() || fresher(freshest_.back(), old)) return;
  const auto it = std::find_if(freshest_.begin(), freshest_.end(),
                               [&](const CapabilityRecord& r) { return r.origin == old.origin; });
  HG_ASSERT(it != freshest_.end());
  freshest_.erase(it);
}

void FreshnessAggregator::index(const CapabilityRecord& rec) {
  const std::size_t want = config_.records_per_gossip - 1;
  if (freshest_.size() == want) {
    if (want == 0 || !fresher(rec, freshest_.back())) return;
    freshest_.pop_back();  // `rec` takes the last place
  } else if (freshest_.capacity() == 0) {
    freshest_.reserve(want);
  }
  const auto at = std::find_if(freshest_.begin(), freshest_.end(),
                               [&](const CapabilityRecord& r) { return fresher(rec, r); });
  freshest_.insert(at, rec);
}

void FreshnessAggregator::on_datagram(const net::Datagram& d) {
  auto msg = gossip::decode_aggregation(d.bytes);
  if (!msg) {
    ++stats_.malformed;
    return;
  }
  const sim::SimTime now = sim_.now();
  for (const CapabilityRecord& rec : msg->records) {
    // No such node, or a stamp from the future: such a record would lead
    // the freshest index forever and never expire. No rate is negative or
    // above unlimited: such a capability would turn the estimate negative or
    // push every fanout target to zero.
    if (rec.origin.value() >= fabric_.node_count() || rec.measured_at > now ||
        rec.capability_bps < 0 || rec.capability_bps > BitRate::unlimited().bits_per_sec()) {
      ++stats_.malformed;
      continue;
    }
    if (rec.origin == self_) continue;  // own value is authoritative locally
    const auto it = std::lower_bound(records_.begin(), records_.end(), rec.origin, origin_below);
    auto pos = static_cast<std::size_t>(it - records_.begin());
    const bool present = pos < records_.size() && records_[pos].origin == rec.origin;
    if (config_.max_records > 0 && !present && records_.size() >= config_.max_records) {
      // Table full: the stalest record loses. A full scan per eviction is
      // fine (the cap is small) and independent of storage layout: ties
      // break toward the larger origin id, a total order.
      std::size_t stalest = 0;
      for (std::size_t i = 1; i < records_.size(); ++i) {
        // Ascending origin scan: a strictly staler record always wins the
        // slot, an equally stale one has the larger origin and wins too.
        if (records_[i].measured_at <= records_[stalest].measured_at) stalest = i;
      }
      if (records_[stalest].measured_at >= rec.measured_at) {
        ++stats_.records_stale_dropped;
        continue;  // the incoming record is the stalest of them all
      }
      unindex(records_[stalest]);
      records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(stalest));
      if (stalest < pos) --pos;
    }
    if (present) {
      if (records_[pos].measured_at >= rec.measured_at) {
        ++stats_.records_stale_dropped;
        continue;  // keep the fresher record
      }
      unindex(records_[pos]);
      records_[pos] = rec;
    } else {
      records_.insert(records_.begin() + static_cast<std::ptrdiff_t>(pos), rec);
    }
    index(rec);
    ++stats_.records_merged;
  }
}

double FreshnessAggregator::average_capability_bps() const {
  // Integer accumulation: the sum is exact, so the estimate is independent of
  // visit order by construction (a double running sum is only incidentally
  // so while partial sums stay under 2^53). 128 bits hold any table of
  // records up to BitRate::unlimited() without overflow.
  __int128 sum = own_capability_.bits_per_sec();
  std::size_t count = 1;
  const sim::SimTime now = sim_.now();
  for (const CapabilityRecord& known : records_) {
    if (now - known.measured_at > config_.record_expiry) continue;
    sum += known.capability_bps;
    ++count;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

}  // namespace hg::aggregation
