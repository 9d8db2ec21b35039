// Wire messages of the three-phase gossip protocol and the aggregation
// protocol, with byte-exact encode/decode.
//
// Every datagram starts with a one-byte tag so a node can dispatch the
// protocols sharing its UDP port.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/buffer.hpp"
#include "net/serde.hpp"
#include "sim/time.hpp"

namespace hg::gossip {

// Tags are shared across all protocols multiplexed on a node's port.
enum class MsgTag : std::uint8_t {
  kPropose = 1,
  kRequest = 2,
  kServe = 3,
  kAggregation = 4,
};
// The highest tag: peek_tag accepts tags up to it.
inline constexpr MsgTag kLastMsgTag = MsgTag::kAggregation;

// Decoder limits: a message claiming more entries than these is malformed.
// A propose or request carries one gossip period's ids; an aggregation
// round carries AggregationConfig::records_per_gossip records, which the
// aggregator checks against kMaxAggregationRecords at construction.
inline constexpr std::size_t kMaxIdsPerMessage = 100000;
inline constexpr std::size_t kMaxAggregationRecords = 10000;

// The canonical (window, index) event identifier lives in common/types.hpp
// alongside NodeId; re-exported here because the wire layer popularized the
// name and every gossip file spells it unqualified.
using ::hg::EventId;

// A disseminated event: id + payload. The payload is a refcounted pooled
// chunk that storage and serves never copy: a serve carries the sender's
// stored chunk as its datagram body, and the receiver stores that same
// chunk (only a partition crossing in the sharded engine copies it).
//
// Virtual payloads (large-scale simulation): an event may instead carry only
// a declared payload *size*. Serve datagrams of such events ship the header
// alone and account the missing bytes as phantom wire bytes, so every
// timing-relevant quantity (upload serialization, queueing, traffic meters)
// is bit-identical to a real payload of that size — while a 100k-node run
// stores no payload bytes at all. Whether a deployment runs virtual is a
// GossipConfig/StreamConfig decision applied uniformly to every node.
struct Event {
  EventId id;
  net::BufferRef payload;
  std::uint32_t virtual_size = 0;  // payload bytes represented but not stored

  [[nodiscard]] bool virtual_payload() const { return !payload && virtual_size > 0; }
  [[nodiscard]] std::size_t payload_size() const {
    return payload ? payload.size() : virtual_size;
  }
};

struct ProposeMsg {
  NodeId sender;
  std::vector<EventId> ids;
};

struct RequestMsg {
  NodeId sender;
  std::vector<EventId> ids;
};

// One event per serve *datagram*: stream packets are MTU-sized (1316 B), so
// a multi-packet serve would not fit a UDP datagram anyway. A serve travels
// in two parts (see net::Datagram):
//  * the header — tag, sender, event id, and a varint declaring the payload
//    length — as the datagram's bytes;
//  * the body — the payload chunk itself, shared with the sender's store.
// A virtual payload has no body: the declared length travels as phantom
// wire bytes instead. Either way the wire size is what one contiguous
// encoding of header and payload would be.
struct ServeMsg {
  NodeId sender;
  Event event;
};

// One serve datagram's parts, as NetworkFabric::send takes them.
struct ServeDatagram {
  net::BufferRef header;
  net::ChunkRef body;               // null for virtual (and empty) payloads
  std::uint32_t phantom_bytes = 0;  // the virtual payload's declared size
};

// One capability observation flowing through the aggregation protocol.
struct CapabilityRecord {
  NodeId origin;
  std::int64_t capability_bps = 0;
  sim::SimTime measured_at;  // origin-local timestamp (clocks are synchronized in-sim)
};

struct AggregationMsg {
  NodeId sender;
  std::vector<CapabilityRecord> records;
};

// --- encode / decode ---------------------------------------------------
// Encoders write into a pooled buffer and return a zero-copy reference
// ready for NetworkFabric::send, exactly as long as the message. Decoders
// return nullopt on any truncation, corruption or trailing byte; the
// receiving module counts such a datagram as malformed.

[[nodiscard]] net::BufferRef encode(const ProposeMsg& m);
[[nodiscard]] net::BufferRef encode(const RequestMsg& m);
[[nodiscard]] ServeDatagram encode(const ServeMsg& m);
[[nodiscard]] net::BufferRef encode(const AggregationMsg& m);

// Hot-path forms: encode straight from scratch storage without constructing
// a message struct (constructing ProposeMsg/RequestMsg would copy the id
// vector — an allocation the steady-state wire path must not make).
[[nodiscard]] net::BufferRef encode_propose(NodeId sender, std::span<const EventId> ids);
[[nodiscard]] net::BufferRef encode_request(NodeId sender, std::span<const EventId> ids);
// An aggregation round: `own` then `others`, bit-identical to encoding an
// AggregationMsg whose records are own followed by others.
[[nodiscard]] net::BufferRef encode_aggregation(NodeId sender, const CapabilityRecord& own,
                                                std::span<const CapabilityRecord> others);

// Exact wire size of one serve of `event`, header plus payload (virtual
// payload bytes included: this is what the datagram *accounts*, not what it
// stores).
[[nodiscard]] std::size_t encoded_serve_size(const Event& event);

// The body a serve of `event` carries: its stored payload chunk, shared.
// Stored payloads are whole chunks (the source's copy_of, or a received
// body); a payload viewing part of a larger chunk is copied once, so the
// receiver still stores exactly the payload's bytes.
[[nodiscard]] net::ChunkRef serve_body(const Event& event);

// One batched serve's header: a span of the shared header buffer, plus the
// phantom byte count a virtual payload adds to its wire size (0 for real
// payloads).
struct ServeSpan {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t phantom_bytes = 0;
};

// The batched serve: the headers of all of `events` encoded back-to-back
// into one pooled buffer. `spans` (cleared first) receives each event's
// span; the datagram for events[i] is the slice of the result at spans[i]
// plus serve_body(events[i]), bit-identical to encode(ServeMsg{...}).
[[nodiscard]] net::BufferRef encode_serve_batch(NodeId sender, std::span<const Event> events,
                                                std::vector<ServeSpan>& spans);

[[nodiscard]] std::optional<MsgTag> peek_tag(std::span<const std::uint8_t> buf);
[[nodiscard]] std::optional<ProposeMsg> decode_propose(std::span<const std::uint8_t> buf);
[[nodiscard]] std::optional<RequestMsg> decode_request(std::span<const std::uint8_t> buf);
// Decodes a serve from its header bytes and body. Zero copy: a real
// payload is the body chunk itself. `virtual_payloads` selects the
// deployment's framing, and a serve is malformed when
//  * its header is truncated or bytes trail after the declared length;
//  * (real) the declared length differs from the body size — a missing body
//    counts as zero bytes, so a real serve without one is malformed unless
//    it declares an empty payload;
//  * (virtual) a body arrives, or the declared length exceeds 32 bits.
[[nodiscard]] std::optional<ServeMsg> decode_serve(std::span<const std::uint8_t> header,
                                                   const net::ChunkRef& body,
                                                   bool virtual_payloads = false);
[[nodiscard]] std::optional<AggregationMsg> decode_aggregation(
    std::span<const std::uint8_t> buf);

}  // namespace hg::gossip
