#include "net/serde.hpp"

#include <gtest/gtest.h>

namespace hg::net {
namespace {

TEST(Serde, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);

  auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, VarintBoundaries) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          0xffffffffULL, ~0ULL}) {
    ByteWriter w;
    w.varint(v);
    auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Serde, VarintCompactness) {
  ByteWriter w;
  w.varint(100);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Serde, TruncatedReadsReturnNullopt) {
  ByteWriter w;
  w.u32(7);
  auto buf = w.take();
  ByteReader r(buf);
  EXPECT_TRUE(r.u32().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Serde, MalformedVarintReturnsNullopt) {
  std::vector<std::uint8_t> bad(11, 0x80);  // never terminates
  ByteReader r(bad);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(Serde, TenByteVarintAtMaxDecodes) {
  ByteWriter w;
  w.varint(~0ULL);
  const auto buf = w.take();
  EXPECT_EQ(buf.size(), 10u);
  ByteReader r(buf);
  EXPECT_EQ(r.varint(), ~0ULL);
}

TEST(Serde, OverlongVarintIsRejected) {
  // 10 bytes whose final byte carries more than the one bit that fits in a
  // 64-bit value: accepting it would silently truncate.
  std::vector<std::uint8_t> overflow(9, 0xff);
  overflow.push_back(0x02);
  ByteReader r(overflow);
  EXPECT_FALSE(r.varint().has_value());

  // 11-byte encoding: too long regardless of content.
  std::vector<std::uint8_t> toolong(10, 0x80);
  toolong.push_back(0x01);
  ByteReader r2(toolong);
  EXPECT_FALSE(r2.varint().has_value());
}

TEST(Serde, EmptyBuffer) {
  std::vector<std::uint8_t> empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.varint().has_value());
}

}  // namespace
}  // namespace hg::net
