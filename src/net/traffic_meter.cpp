#include "net/traffic_meter.hpp"

namespace hg::net {

const char* to_string(MsgClass c) {
  switch (c) {
    case MsgClass::kPropose: return "propose";
    case MsgClass::kRequest: return "request";
    case MsgClass::kServe: return "serve";
    case MsgClass::kAggregation: return "aggregation";
    case MsgClass::kOther: return "other";
    case MsgClass::kCount_: break;
  }
  return "?";
}

double TrafficMeter::usage_fraction(sim::SimTime duration, std::int64_t capacity_bps) const {
  if (capacity_bps <= 0 || duration <= sim::SimTime::zero()) return 0.0;
  const double sent_bits = static_cast<double>(total_sent_bytes()) * 8.0;
  const double capacity_bits = static_cast<double>(capacity_bps) * duration.as_sec();
  return sent_bits / capacity_bits;
}

}  // namespace hg::net
