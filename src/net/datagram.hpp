// The unit of transport: an unreliable datagram, as UDP provides.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "net/buffer.hpp"

namespace hg::net {

// Per-datagram IPv4 (20 B) + UDP (8 B) header overhead added to every wire
// size; the paper's rate limiter operated on real UDP datagrams.
inline constexpr std::int64_t kUdpIpOverheadBytes = 28;

// Traffic classes, used for per-class bandwidth accounting (Fig. 4) and for
// the priority-queue ablation.
enum class MsgClass : std::uint8_t {
  kPropose = 0,
  kRequest,
  kServe,
  kAggregation,
  kOther,
  kCount_,
};

[[nodiscard]] const char* to_string(MsgClass c);

// A datagram travels as up to two parts: `bytes`, the encoded message (or,
// for a serve, its header), and `body`, the payload chunk the sender
// stores, shared by refcount. A gossip serve forwards the sender's stored
// packet this way instead of copying it, and the receiver stores that same
// chunk. The body is immutable (see ChunkRef): no holder, sender or
// receiver, may write into it.
struct Datagram {
  NodeId src;
  NodeId dst;
  MsgClass cls = MsgClass::kOther;
  // Bytes this datagram represents on the wire beyond what it stores — the
  // payload of a virtual-payload serve (large-scale runs). Phantom bytes
  // count toward every timing and accounting path (upload serialization,
  // traffic meters), so a virtual run's clock is bit-identical to a real one.
  // Virtual sizes are uint32 everywhere; this fills the padding after `cls`.
  std::uint32_t phantom_bytes = 0;
  // The encoded message, or a serve's header. A pooled,
  // refcounted slice: a propose fanned out to f targets is encoded once, and
  // a batched serve round shares one header buffer across all of its
  // per-event datagrams.
  BufferRef bytes;
  // The payload chunk, or null when the datagram carries none.
  ChunkRef body;

  [[nodiscard]] std::int64_t wire_bytes() const {
    return static_cast<std::int64_t>(bytes.size() + body.size()) + phantom_bytes +
           kUdpIpOverheadBytes;
  }
};

// The upload-link and delivery closures capture [this, Datagram] by value:
// 8 + 40 bytes exactly fill sim::SmallFn's 48-byte inline buffer, so every
// datagram hop schedules without a heap allocation. A bigger Datagram pushes
// those closures onto the heap.
static_assert(sizeof(Datagram) <= 40, "Datagram must fit SmallFn's inline budget");

}  // namespace hg::net
