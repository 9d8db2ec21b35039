// The uniform lifecycle every protocol module mounted on a NodeRuntime
// implements.
//
// A module is one protocol of a node's stack: three-phase gossip, capability
// aggregation, FEC window decoding, or pure signal-bus glue like the stream
// player adapter. The interface is deliberately lifecycle-only —
// datagram routing does NOT go through this vtable. A module claims the
// message tags it owns with NodeRuntime::register_tag, and the runtime
// dispatches incoming datagrams through a flat tag table of plain function
// pointers, so the receive hot path never pays a virtual call.
#pragma once

namespace hg::core {

class Protocol {
 public:
  virtual ~Protocol() = default;

  // Called by NodeRuntime::start()/stop(), once per transition (the runtime
  // makes repeated start()/stop() calls idempotent). Modules arm and cancel
  // their timers here; construction must not schedule anything.
  virtual void start() {}
  virtual void stop() {}

  // Stable diagnostic name ("gossip", "aggregation", ...).
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace hg::core
