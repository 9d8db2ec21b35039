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

}  // namespace hg::net
