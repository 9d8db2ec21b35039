#include "gossip/messages.hpp"

namespace hg::gossip {

namespace {

void write_ids(net::ByteWriter& w, std::span<const EventId> ids) {
  w.varint(ids.size());
  // Ids within one message are near-consecutive (they batch one gossip
  // period of the stream); delta-encoding would shave bytes but the paper
  // computes overheads with plain 8-byte ids, so stay faithful.
  for (EventId id : ids) w.u64(id.raw());
}

[[nodiscard]] bool read_ids(net::ByteReader& r, std::vector<EventId>& out) {
  const auto n = r.varint();
  if (!n || *n > kMaxIdsPerMessage) return false;
  out.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto raw = r.u64();
    if (!raw) return false;
    out.push_back(EventId::from_raw(*raw));
  }
  return true;
}

}  // namespace

net::BufferRef encode_propose(NodeId sender, std::span<const EventId> ids) {
  net::ByteWriter w(8 + ids.size() * 8);
  w.u8(static_cast<std::uint8_t>(MsgTag::kPropose));
  w.u32(sender.value());
  write_ids(w, ids);
  return w.finish();
}

net::BufferRef encode_request(NodeId sender, std::span<const EventId> ids) {
  net::ByteWriter w(8 + ids.size() * 8);
  w.u8(static_cast<std::uint8_t>(MsgTag::kRequest));
  w.u32(sender.value());
  write_ids(w, ids);
  return w.finish();
}

net::BufferRef encode(const ProposeMsg& m) { return encode_propose(m.sender, m.ids); }

net::BufferRef encode(const RequestMsg& m) { return encode_request(m.sender, m.ids); }

namespace {

// tag + sender + id + payload length varint.
[[nodiscard]] std::size_t serve_header_size(const Event& event) {
  std::size_t varint_len = 1;
  for (std::uint64_t v = event.payload_size(); v >= 0x80; v >>= 7) ++varint_len;
  return 1 + 4 + 8 + varint_len;
}

void write_serve_header(net::ByteWriter& w, NodeId sender, const Event& event) {
  w.u8(static_cast<std::uint8_t>(MsgTag::kServe));
  w.u32(sender.value());
  w.u64(event.id.raw());
  // The declared length: the body's size for a real payload, the phantom
  // byte count for a virtual one.
  w.varint(event.payload_size());
}

[[nodiscard]] std::uint32_t serve_phantom_bytes(const Event& event) {
  return event.virtual_payload() ? event.virtual_size : 0;
}

}  // namespace

std::size_t encoded_serve_size(const Event& event) {
  return serve_header_size(event) + event.payload_size();
}

net::ChunkRef serve_body(const Event& event) {
  if (event.payload.whole()) return event.payload.chunk();
  return net::ChunkRef::copy_of(event.payload.bytes());
}

ServeDatagram encode(const ServeMsg& m) {
  net::ByteWriter w(serve_header_size(m.event));
  write_serve_header(w, m.sender, m.event);
  return ServeDatagram{w.finish(), serve_body(m.event), serve_phantom_bytes(m.event)};
}

net::BufferRef encode_serve_batch(NodeId sender, std::span<const Event> events,
                                  std::vector<ServeSpan>& spans) {
  std::size_t total = 0;
  for (const Event& e : events) total += serve_header_size(e);
  net::ByteWriter w(total);
  spans.clear();
  for (const Event& e : events) {
    const auto begin = static_cast<std::uint32_t>(w.size());
    write_serve_header(w, sender, e);
    spans.push_back(ServeSpan{begin, static_cast<std::uint32_t>(w.size()) - begin,
                              serve_phantom_bytes(e)});
  }
  return w.finish();
}

namespace {

// tag + sender + record count, then 20 bytes per record: `head`, then `tail`.
net::BufferRef encode_records(NodeId sender, std::span<const CapabilityRecord> head,
                              std::span<const CapabilityRecord> tail) {
  const std::size_t count = head.size() + tail.size();
  net::ByteWriter w(8 + count * 20);
  w.u8(static_cast<std::uint8_t>(MsgTag::kAggregation));
  w.u32(sender.value());
  w.varint(count);
  for (const auto records : {head, tail}) {
    for (const CapabilityRecord& rec : records) {
      w.u32(rec.origin.value());
      w.i64(rec.capability_bps);
      w.i64(rec.measured_at.as_us());
    }
  }
  return w.finish();
}

}  // namespace

net::BufferRef encode(const AggregationMsg& m) { return encode_records(m.sender, m.records, {}); }

net::BufferRef encode_aggregation(NodeId sender, const CapabilityRecord& own,
                                  std::span<const CapabilityRecord> others) {
  return encode_records(sender, {&own, 1}, others);
}

std::optional<MsgTag> peek_tag(std::span<const std::uint8_t> buf) {
  if (buf.empty()) return std::nullopt;
  const std::uint8_t t = buf[0];
  if (t < static_cast<std::uint8_t>(MsgTag::kPropose) ||
      t > static_cast<std::uint8_t>(kLastMsgTag)) {
    return std::nullopt;
  }
  return static_cast<MsgTag>(t);
}

namespace {

[[nodiscard]] bool read_header(net::ByteReader& r, MsgTag expected, NodeId& sender) {
  const auto tag = r.u8();
  if (!tag || *tag != static_cast<std::uint8_t>(expected)) return false;
  const auto s = r.u32();
  if (!s) return false;
  sender = NodeId{*s};
  return true;
}

}  // namespace

std::optional<ProposeMsg> decode_propose(std::span<const std::uint8_t> buf) {
  net::ByteReader r(buf);
  ProposeMsg m;
  if (!read_header(r, MsgTag::kPropose, m.sender)) return std::nullopt;
  if (!read_ids(r, m.ids) || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<RequestMsg> decode_request(std::span<const std::uint8_t> buf) {
  net::ByteReader r(buf);
  RequestMsg m;
  if (!read_header(r, MsgTag::kRequest, m.sender)) return std::nullopt;
  if (!read_ids(r, m.ids) || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<ServeMsg> decode_serve(std::span<const std::uint8_t> header,
                                     const net::ChunkRef& body, bool virtual_payloads) {
  net::ByteReader r(header);
  ServeMsg m;
  if (!read_header(r, MsgTag::kServe, m.sender)) return std::nullopt;
  const auto raw = r.u64();
  if (!raw) return std::nullopt;
  m.event.id = EventId::from_raw(*raw);
  const auto declared = r.varint();
  // The header ends at the declared length; anything after it is a framing
  // bug, not a loss event to shrug off.
  if (!declared || !r.exhausted()) return std::nullopt;
  if (virtual_payloads) {
    // A body here is a real-payload serve in a virtual deployment.
    if (body || *declared > 0xffffffffULL) return std::nullopt;
    m.event.virtual_size = static_cast<std::uint32_t>(*declared);
    return m;
  }
  if (*declared != body.size()) return std::nullopt;
  // Zero copy: the receiver stores the sender's chunk itself.
  m.event.payload = net::BufferRef(body);
  return m;
}

std::optional<AggregationMsg> decode_aggregation(std::span<const std::uint8_t> buf) {
  net::ByteReader r(buf);
  AggregationMsg m;
  if (!read_header(r, MsgTag::kAggregation, m.sender)) return std::nullopt;
  const auto n = r.varint();
  if (!n || *n > kMaxAggregationRecords) return std::nullopt;
  m.records.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto origin = r.u32();
    const auto cap = r.i64();
    const auto ts = r.i64();
    if (!origin || !cap || !ts) return std::nullopt;
    m.records.push_back(
        CapabilityRecord{NodeId{*origin}, *cap, sim::SimTime::us(*ts)});
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

}  // namespace hg::gossip
