#include "aggregation/freshness_aggregator.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hg::aggregation {

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
}

void FreshnessAggregator::start() {
  const auto phase = sim::SimTime::us(static_cast<std::int64_t>(
      rng_.below(static_cast<std::uint64_t>(config_.period.as_us()))));
  timer_ = sim_.every(phase, config_.period, [this]() { gossip_round(); });
}

void FreshnessAggregator::stop() { timer_.cancel(); }

void FreshnessAggregator::gossip_round() {
  // Assemble the freshest `records_per_gossip` records, own value first
  // (refreshed to now — the node keeps advertising what it can do).
  std::vector<gossip::CapabilityRecord> fresh;
  fresh.reserve(config_.records_per_gossip);
  fresh.push_back({self_, own_capability_.bits_per_sec(), sim_.now()});

  // Rank by freshness; equal timestamps break toward the smaller origin id
  // (records_ indices ascend with origin), a total order — which records
  // propagate can never depend on container layout or sort internals.
  std::vector<std::uint32_t> by_age(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) by_age[i] = i;
  const std::size_t want = config_.records_per_gossip - 1;
  if (by_age.size() > want) {
    std::partial_sort(by_age.begin(), by_age.begin() + static_cast<std::ptrdiff_t>(want),
                      by_age.end(), [this](std::uint32_t a, std::uint32_t b) {
                        if (records_[a].measured_at != records_[b].measured_at) {
                          return records_[a].measured_at > records_[b].measured_at;
                        }
                        return a < b;
                      });
    by_age.resize(want);
  }
  for (std::uint32_t i : by_age) {
    fresh.push_back({records_[i].origin, records_[i].capability_bps, records_[i].measured_at});
  }

  const auto bytes = gossip::encode(gossip::AggregationMsg{self_, fresh});
  view_.select_nodes(config_.fanout, targets_scratch_, rng_);
  for (NodeId target : targets_scratch_) {
    fabric_.send(self_, target, net::MsgClass::kAggregation, bytes);
    ++stats_.gossips_sent;
  }
}

std::size_t FreshnessAggregator::lower_bound_index(NodeId origin) const {
  const auto it =
      std::lower_bound(records_.begin(), records_.end(), origin,
                       [](const Known& k, NodeId o) { return k.origin.value() < o.value(); });
  return static_cast<std::size_t>(it - records_.begin());
}

void FreshnessAggregator::on_datagram(const net::Datagram& d) {
  auto msg = gossip::decode_aggregation(d.bytes);
  if (!msg) return;
  for (const gossip::CapabilityRecord& rec : msg->records) {
    if (rec.origin == self_) continue;  // own value is authoritative locally
    std::size_t pos = lower_bound_index(rec.origin);
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
      records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(stalest));
      pos = lower_bound_index(rec.origin);
    }
    if (present) {
      if (records_[pos].measured_at >= rec.measured_at) {
        ++stats_.records_stale_dropped;
        continue;  // keep the fresher record
      }
    } else {
      records_.insert(records_.begin() + static_cast<std::ptrdiff_t>(pos),
                      Known{rec.origin, 0, sim::SimTime::zero()});
    }
    records_[pos].capability_bps = rec.capability_bps;
    records_[pos].measured_at = rec.measured_at;
    ++stats_.records_merged;
  }
}

double FreshnessAggregator::average_capability_bps() const {
  // Integer accumulation: the sum is exact, so the estimate is independent of
  // visit order by construction (a double running sum is only incidentally
  // so while partial sums stay under 2^53).
  std::int64_t sum = own_capability_.bits_per_sec();
  std::size_t count = 1;
  const sim::SimTime now = sim_.now();
  for (const Known& known : records_) {
    if (now - known.measured_at > config_.record_expiry) continue;
    sum += known.capability_bps;
    ++count;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

}  // namespace hg::aggregation
