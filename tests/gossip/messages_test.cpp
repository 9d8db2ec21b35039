#include "gossip/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace hg::gossip {
namespace {

net::BufferRef make_payload(std::size_t n, std::uint8_t fill) {
  return net::BufferRef::copy_of(std::vector<std::uint8_t>(n, fill));
}

TEST(EventId, PackUnpack) {
  const EventId id{12345, 109};
  EXPECT_EQ(id.window(), 12345u);
  EXPECT_EQ(id.index(), 109u);
  EXPECT_EQ(EventId::from_raw(id.raw()), id);
}

TEST(EventId, Ordering) {
  EXPECT_LT(EventId(1, 5), EventId(2, 0));
  EXPECT_LT(EventId(1, 5), EventId(1, 6));
}

TEST(Messages, ProposeRoundTrip) {
  ProposeMsg m{NodeId{42}, {EventId{1, 0}, EventId{1, 1}, EventId{2, 108}}};
  auto buf = encode(m);
  EXPECT_EQ(peek_tag(buf), MsgTag::kPropose);
  auto out = decode_propose(buf);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, NodeId{42});
  EXPECT_EQ(out->ids, m.ids);
}

TEST(Messages, ProposeSizeMatchesPaperArithmetic) {
  // 11 ids/propose (paper: 11.26 avg): 1 tag + 4 sender + 1 varint + 11*8.
  std::vector<EventId> ids;
  for (std::uint16_t i = 0; i < 11; ++i) ids.emplace_back(3, i);
  auto buf = encode(ProposeMsg{NodeId{1}, ids});
  EXPECT_EQ(buf.size(), 1u + 4u + 1u + 11u * 8u);
}

TEST(Messages, RequestRoundTrip) {
  RequestMsg m{NodeId{7}, {EventId{9, 3}}};
  auto out = decode_request(encode(m));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, NodeId{7});
  EXPECT_EQ(out->ids, m.ids);
}

TEST(Messages, ServeRoundTripWithPayload) {
  auto payload = make_payload(1316, 0x5a);
  ServeMsg m{NodeId{3}, Event{EventId{4, 77}, payload}};
  const ServeDatagram wire = encode(m);
  // Header: tag + sender + id + 2-byte length varint. The payload is the body.
  EXPECT_EQ(wire.header.size(), 1u + 4u + 8u + 2u);
  EXPECT_EQ(wire.body.size(), 1316u);
  EXPECT_EQ(wire.phantom_bytes, 0u);
  EXPECT_EQ(wire.header.size() + wire.body.size(), encoded_serve_size(m.event));
  auto out = decode_serve(wire.header, wire.body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, NodeId{3});
  EXPECT_EQ(out->event.id, (EventId{4, 77}));
  ASSERT_TRUE(out->event.payload);
  EXPECT_EQ(out->event.payload.to_vector(), payload.to_vector());
}

TEST(Messages, DecodeServeFromBufferIsZeroCopy) {
  const net::BufferRef payload = make_payload(256, 0x5a);
  const ServeDatagram wire = encode(ServeMsg{NodeId{3}, Event{EventId{4, 77}, payload}});
  // The body is the sender's stored chunk itself, not a copy...
  EXPECT_EQ(wire.body.data(), payload.data());
  EXPECT_EQ(payload.ref_count(), 2u);
  auto out = decode_serve(wire.header, wire.body);
  ASSERT_TRUE(out.has_value());
  // ...and the receiver stores that same chunk.
  EXPECT_EQ(out->event.payload.data(), payload.data());
  EXPECT_TRUE(out->event.payload.whole());
  EXPECT_EQ(payload.ref_count(), 3u);
}

TEST(Messages, ServeOfASlicedPayloadCarriesExactlyItsBytes) {
  // A payload viewing part of a larger chunk cannot travel as that chunk:
  // the body is a copy of just the payload's bytes.
  const net::BufferRef backing = net::BufferRef::copy_of(std::vector<std::uint8_t>{1, 2, 3, 4, 5});
  const Event e{EventId{1, 2}, backing.slice(1, 3)};
  const ServeDatagram wire = encode(ServeMsg{NodeId{3}, e});
  EXPECT_EQ(wire.body.size(), 3u);
  EXPECT_EQ(backing.ref_count(), 2u);  // the test's and the event's: the body is a copy
  auto out = decode_serve(wire.header, wire.body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->event.payload.to_vector(), (std::vector<std::uint8_t>{2, 3, 4}));
}

TEST(Messages, ServeRoundTripEmptyPayload) {
  ServeMsg m{NodeId{3}, Event{EventId{4, 77}, net::BufferRef{}}};
  const ServeDatagram wire = encode(m);
  EXPECT_FALSE(wire.body);
  auto out = decode_serve(wire.header, wire.body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->event.payload_size(), 0u);
}

TEST(Messages, BatchedServeSlicesMatchIndividualEncodes) {
  // The serve batch writes N standalone serve headers into one buffer; each
  // slice at a span must be bit-identical to a solo encode's header, and
  // the solo encode's body is the event's own chunk.
  std::vector<Event> events;
  for (std::uint16_t k = 0; k < 5; ++k) {
    events.push_back(Event{EventId{7, k}, make_payload(100 + k * 40u, 0x21 + k)});
  }
  std::vector<ServeSpan> spans;
  const net::BufferRef batch = encode_serve_batch(NodeId{9}, events, spans);
  ASSERT_EQ(spans.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ServeDatagram solo = encode(ServeMsg{NodeId{9}, events[i]});
    EXPECT_EQ(spans[i].phantom_bytes, 0u);  // real payloads: nothing phantom
    const net::BufferRef header = batch.slice(spans[i].offset, spans[i].length);
    EXPECT_EQ(header.to_vector(), solo.header.to_vector());
    EXPECT_EQ(solo.body.data(), events[i].payload.data());
    EXPECT_EQ(header.size() + solo.body.size(), encoded_serve_size(events[i]));
    auto out = decode_serve(header, serve_body(events[i]));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->event.id, events[i].id);
    EXPECT_EQ(out->event.payload.to_vector(), events[i].payload.to_vector());
  }
}

TEST(Messages, VirtualServeRoundTripAndPhantomAccounting) {
  // A virtual-payload serve ships the header + declared length only, with
  // the missing bytes as phantom: header + phantom account exactly what the
  // real-payload serve puts on the wire.
  const Event real{EventId{7, 3}, make_payload(1316, 0x5a)};
  Event virt;
  virt.id = real.id;
  virt.virtual_size = 1316;
  ASSERT_TRUE(virt.virtual_payload());
  EXPECT_EQ(virt.payload_size(), real.payload_size());
  EXPECT_EQ(encoded_serve_size(virt), encoded_serve_size(real));

  std::vector<Event> events{virt};
  std::vector<ServeSpan> spans;
  const net::BufferRef batch = encode_serve_batch(NodeId{9}, events, spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phantom_bytes, 1316u);
  EXPECT_FALSE(serve_body(virt));
  EXPECT_EQ(spans[0].length + spans[0].phantom_bytes, encoded_serve_size(real));
  const net::BufferRef header = batch.slice(spans[0].offset, spans[0].length);
  const ServeDatagram real_wire = encode(ServeMsg{NodeId{9}, real});
  EXPECT_EQ(header.to_vector(), real_wire.header.to_vector());

  // Virtual framing decodes only in virtual mode...
  const auto out = decode_serve(header, {}, /*virtual_payloads=*/true);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, NodeId{9});
  EXPECT_EQ(out->event.id, virt.id);
  EXPECT_TRUE(out->event.virtual_payload());
  EXPECT_EQ(out->event.payload_size(), 1316u);
  // ...while a real-mode decode sees a declared payload with no body.
  EXPECT_FALSE(decode_serve(header, {}).has_value());
  // And a real-payload serve is rejected by a virtual-mode decoder (framing
  // mismatch must be loud, not shrugged off as loss).
  EXPECT_FALSE(
      decode_serve(real_wire.header, real_wire.body, /*virtual_payloads=*/true).has_value());
}

TEST(Messages, ServeFramingMismatchesAreMalformed) {
  const Event e{EventId{4, 7}, make_payload(100, 1)};
  const ServeDatagram wire = encode(ServeMsg{NodeId{3}, e});
  ASSERT_TRUE(decode_serve(wire.header, wire.body).has_value());
  // The declared length differs from the body size.
  EXPECT_FALSE(decode_serve(wire.header, net::ChunkRef::copy_of(std::vector<std::uint8_t>(99, 1)))
                   .has_value());
  EXPECT_FALSE(decode_serve(wire.header, net::ChunkRef::copy_of(std::vector<std::uint8_t>(101, 1)))
                   .has_value());
  // A real serve without its body.
  EXPECT_FALSE(decode_serve(wire.header, net::ChunkRef{}).has_value());
  // Header bytes trailing after the length (the old contiguous framing).
  net::ByteWriter w;
  const auto header = wire.header.to_vector();
  for (std::uint8_t b : header) w.u8(b);
  w.u8(0);
  EXPECT_FALSE(decode_serve(w.finish(), wire.body).has_value());
}

TEST(Messages, AggregationRoundTrip) {
  AggregationMsg m{NodeId{9},
                   {{NodeId{1}, 512'000, sim::SimTime::ms(100)},
                    {NodeId{2}, 3'072'000, sim::SimTime::ms(250)}}};
  auto out = decode_aggregation(encode(m));
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->records.size(), 2u);
  EXPECT_EQ(out->records[0].origin, NodeId{1});
  EXPECT_EQ(out->records[0].capability_bps, 512'000);
  EXPECT_EQ(out->records[1].measured_at, sim::SimTime::ms(250));
}

TEST(Messages, AggregationRoundEncodesLikeTheMessage) {
  const CapabilityRecord own{NodeId{9}, 700'000, sim::SimTime::ms(900)};
  const std::vector<CapabilityRecord> others{{NodeId{4}, 512'000, sim::SimTime::ms(800)},
                                             {NodeId{2}, 3'072'000, sim::SimTime::ms(300)}};
  std::vector<CapabilityRecord> all{own};
  all.insert(all.end(), others.begin(), others.end());
  const auto round = encode_aggregation(NodeId{9}, own, others);
  const auto message = encode(AggregationMsg{NodeId{9}, all});
  EXPECT_TRUE(std::ranges::equal(round.bytes(), message.bytes()));
  // Alone, the own record is a one-record message.
  EXPECT_TRUE(std::ranges::equal(encode_aggregation(NodeId{9}, own, {}).bytes(),
                                 encode(AggregationMsg{NodeId{9}, {own}}).bytes()));
}

TEST(Messages, AggregationCostMatchesPaperClaim) {
  // "gossips the 10 freshest local capabilities every 200 ms, costing
  // around 1 KB/s": 10 records * 20 B + header ~= 206 B, * 5/s ~= 1 KB/s.
  std::vector<CapabilityRecord> records(10, {NodeId{1}, 1'000'000, sim::SimTime::ms(1)});
  auto buf = encode(AggregationMsg{NodeId{0}, records});
  const double per_sec = (static_cast<double>(buf.size()) + 28.0) * 5.0;  // + UDP/IP
  EXPECT_LT(per_sec, 1300.0);
  EXPECT_GT(per_sec, 800.0);
}

TEST(Messages, DecodeRejectsWrongTag) {
  auto buf = encode(ProposeMsg{NodeId{1}, {EventId{1, 1}}});
  EXPECT_FALSE(decode_request(buf).has_value());
  EXPECT_FALSE(decode_serve(buf, {}).has_value());
  EXPECT_FALSE(decode_aggregation(buf).has_value());
}

TEST(Messages, DecodeRejectsTruncation) {
  const ServeDatagram wire =
      encode(ServeMsg{NodeId{3}, Event{EventId{4, 7}, make_payload(200, 1)}});
  const auto header = wire.header.to_vector();
  for (std::size_t cut = 1; cut <= header.size(); ++cut) {
    const std::span<const std::uint8_t> shorter(header.data(), header.size() - cut);
    EXPECT_FALSE(decode_serve(shorter, wire.body).has_value()) << "header cut=" << cut;
  }
  const auto body = wire.body.bytes();
  for (std::size_t cut : {1UL, 5UL, 13UL, 50UL}) {
    const auto shorter = net::ChunkRef::copy_of(body.first(body.size() - cut));
    EXPECT_FALSE(decode_serve(wire.header, shorter).has_value()) << "body cut=" << cut;
  }
}

// `buf` followed by `extra` zero bytes.
std::vector<std::uint8_t> with_trailing(const net::BufferRef& buf, std::size_t extra) {
  std::vector<std::uint8_t> bytes = buf.to_vector();
  bytes.resize(bytes.size() + extra, 0);
  return bytes;
}

TEST(Messages, DecodeRejectsTrailingBytes) {
  // Encoders write exact lengths, so a byte after the last id or record is
  // corruption: the datagram is malformed, not a message to act on.
  const auto propose = encode(ProposeMsg{NodeId{1}, {EventId{1, 1}, EventId{1, 2}}});
  const auto request = encode(RequestMsg{NodeId{2}, {EventId{3, 4}}});
  const auto aggregation =
      encode(AggregationMsg{NodeId{3}, {{NodeId{4}, 512'000, sim::SimTime::ms(9)}}});
  ASSERT_TRUE(decode_propose(propose).has_value());
  ASSERT_TRUE(decode_request(request).has_value());
  ASSERT_TRUE(decode_aggregation(aggregation).has_value());
  for (const std::size_t extra : {1U, 2U}) {
    EXPECT_FALSE(decode_propose(with_trailing(propose, extra)).has_value()) << extra;
    EXPECT_FALSE(decode_request(with_trailing(request, extra)).has_value()) << extra;
    EXPECT_FALSE(decode_aggregation(with_trailing(aggregation, extra)).has_value()) << extra;
  }
}

TEST(Messages, ListsAtTheDecoderLimitsRoundTrip) {
  AggregationMsg records{
      NodeId{1}, std::vector<CapabilityRecord>(kMaxAggregationRecords,
                                               {NodeId{2}, 512'000, sim::SimTime::ms(3)})};
  const auto at_limit = decode_aggregation(encode(records));
  ASSERT_TRUE(at_limit.has_value());
  EXPECT_EQ(at_limit->records.size(), kMaxAggregationRecords);
  records.records.push_back(records.records.back());
  EXPECT_FALSE(decode_aggregation(encode(records)).has_value());

  ProposeMsg ids{NodeId{1}, std::vector<EventId>(kMaxIdsPerMessage, EventId{1, 1})};
  const auto ids_at_limit = decode_propose(encode(ids));
  ASSERT_TRUE(ids_at_limit.has_value());
  EXPECT_EQ(ids_at_limit->ids.size(), kMaxIdsPerMessage);
  ids.ids.push_back(EventId{1, 2});
  EXPECT_FALSE(decode_propose(encode(ids)).has_value());
}

TEST(Messages, PeekTagRejectsGarbage) {
  std::vector<std::uint8_t> junk{0xee, 1, 2, 3};
  EXPECT_FALSE(peek_tag(junk).has_value());
  std::vector<std::uint8_t> empty;
  EXPECT_FALSE(peek_tag(empty).has_value());
  std::vector<std::uint8_t> past_last{static_cast<std::uint8_t>(kLastMsgTag) + 1};
  EXPECT_FALSE(peek_tag(past_last).has_value());
}

// --- randomized robustness: all four codecs -------------------------------
// Round-trip random messages bit-exactly, then corrupt every prefix length
// and random bytes; decode must return nullopt or a value, never read out
// of bounds (the ASan CI job turns any overread into a failure).

ProposeMsg random_propose(Rng& rng) {
  ProposeMsg m{NodeId{static_cast<std::uint32_t>(rng.below(1000))}, {}};
  const std::size_t n = rng.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    m.ids.emplace_back(static_cast<std::uint32_t>(rng.below(1 << 20)),
                       static_cast<std::uint16_t>(rng.below(110)));
  }
  return m;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(MessagesFuzz, RandomizedRoundTripAllCodecs) {
  Rng rng(2026);
  for (int iter = 0; iter < 200; ++iter) {
    const ProposeMsg p = random_propose(rng);
    auto pd = decode_propose(encode(p));
    ASSERT_TRUE(pd.has_value());
    EXPECT_EQ(pd->sender, p.sender);
    EXPECT_EQ(pd->ids, p.ids);

    const RequestMsg q{p.sender, p.ids};
    auto qd = decode_request(encode(q));
    ASSERT_TRUE(qd.has_value());
    EXPECT_EQ(qd->ids, q.ids);

    const ServeMsg s{NodeId{static_cast<std::uint32_t>(rng.below(1000))},
                     Event{EventId{static_cast<std::uint32_t>(rng.below(1 << 16)),
                                   static_cast<std::uint16_t>(rng.below(110))},
                           net::BufferRef::copy_of(random_bytes(rng, rng.below(1400)))}};
    const ServeDatagram wire = encode(s);
    auto sd = decode_serve(wire.header, wire.body);
    ASSERT_TRUE(sd.has_value());
    EXPECT_EQ(sd->event.id, s.event.id);
    EXPECT_EQ(sd->event.payload.to_vector(), s.event.payload.to_vector());

    AggregationMsg a{NodeId{1}, {}};
    const std::size_t recs = rng.below(15);
    for (std::size_t i = 0; i < recs; ++i) {
      a.records.push_back(CapabilityRecord{
          NodeId{static_cast<std::uint32_t>(rng.below(1000))},
          static_cast<std::int64_t>(rng.below(10'000'000)),
          sim::SimTime::us(static_cast<std::int64_t>(rng.below(1'000'000'000)))});
    }
    auto ad = decode_aggregation(encode(a));
    ASSERT_TRUE(ad.has_value());
    ASSERT_EQ(ad->records.size(), a.records.size());
    for (std::size_t i = 0; i < recs; ++i) {
      EXPECT_EQ(ad->records[i].origin, a.records[i].origin);
      EXPECT_EQ(ad->records[i].capability_bps, a.records[i].capability_bps);
    }
  }
}

// Every decoder over `buf`; the serve decoder in both framings, with `body`.
void decode_all(std::span<const std::uint8_t> buf, const net::ChunkRef& body = {}) {
  (void)peek_tag(buf);
  (void)decode_propose(buf);
  (void)decode_request(buf);
  (void)decode_serve(buf, body);
  (void)decode_serve(buf, body, /*virtual_payloads=*/true);
  (void)decode_aggregation(buf);
}

TEST(MessagesFuzz, EveryPrefixOfEveryCodecIsSafe) {
  Rng rng(7);
  const ServeDatagram serve = encode(
      ServeMsg{NodeId{5}, Event{EventId{9, 9}, net::BufferRef::copy_of(random_bytes(rng, 300))}});
  std::vector<net::BufferRef> encoded{
      encode(random_propose(rng)),
      encode(RequestMsg{NodeId{3}, {EventId{1, 2}, EventId{1, 3}}}),
      serve.header,
      encode(AggregationMsg{NodeId{2},
                            {{NodeId{4}, 512'000, sim::SimTime::ms(9)},
                             {NodeId{5}, 128'000, sim::SimTime::ms(10)}}}),
  };
  for (const auto& buf : encoded) {
    const auto whole = buf.to_vector();
    // Every strict prefix: decoders must reject without overreading.
    for (std::size_t len = 0; len < whole.size(); ++len) {
      const std::span<const std::uint8_t> prefix(whole.data(), len);
      decode_all(prefix, serve.body);
      EXPECT_FALSE(decode_serve(prefix, serve.body).has_value());
    }
  }
  // Every strict prefix of the body, under the intact header.
  const auto body = serve.body.bytes();
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(decode_serve(serve.header, net::ChunkRef::copy_of(body.first(len))).has_value());
  }
}

TEST(MessagesFuzz, CorruptedBytesNeverReadOutOfBounds) {
  // Header and body are mutated separately: they are separate buffers on
  // the wire, so each must survive corruption on its own.
  Rng rng(13);
  for (int iter = 0; iter < 300; ++iter) {
    const ServeDatagram wire = encode(
        ServeMsg{NodeId{5}, Event{EventId{9, 9}, net::BufferRef::copy_of(random_bytes(rng, 200))}});
    // Flip a few random header bytes — the length varint included.
    auto header = wire.header.to_vector();
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      header[rng.below(header.size())] = static_cast<std::uint8_t>(rng.below(256));
    }
    decode_all(header, wire.body);
    // Flip, truncate, or extend the body under the intact header.
    const auto body = wire.body.bytes();
    std::vector<std::uint8_t> mutated(body.begin(), body.end());
    switch (rng.below(3)) {
      case 0:
        mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
      case 1:
        mutated.resize(rng.below(mutated.size()));
        break;
      default:
        mutated.resize(mutated.size() + 1 + rng.below(8));
        break;
    }
    const net::ChunkRef mutated_body = net::ChunkRef::copy_of(mutated);
    decode_all(wire.header, mutated_body);
    // A same-length body decodes (the payload is opaque); any other is malformed.
    EXPECT_EQ(decode_serve(wire.header, mutated_body).has_value(), mutated.size() == body.size());
    // Both corrupted at once, and pure noise, too.
    decode_all(header, mutated_body);
    decode_all(random_bytes(rng, rng.below(64)), mutated_body);
  }
}

TEST(MessagesFuzz, OversizedLengthClaimsAreRejected) {
  // A varint length prefix claiming more bytes than the buffer holds (or
  // than 64 bits can express) must fail cleanly, not wrap pos_ + n.
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgTag::kServe));
  w.u32(1);
  w.u64(EventId{1, 1}.raw());
  for (int i = 0; i < 9; ++i) w.u8(0xff);  // varint claiming ~2^63 payload bytes
  w.u8(0x7f);
  const auto buf = w.finish();
  EXPECT_FALSE(decode_serve(buf, {}).has_value());
  EXPECT_FALSE(decode_serve(buf, {}, /*virtual_payloads=*/true).has_value());

  net::ByteWriter w2;
  w2.u8(static_cast<std::uint8_t>(MsgTag::kPropose));
  w2.u32(1);
  for (int i = 0; i < 10; ++i) w2.u8(0xff);  // varint overflowing 64 bits
  EXPECT_FALSE(decode_propose(w2.finish()).has_value());
}

}  // namespace
}  // namespace hg::gossip
