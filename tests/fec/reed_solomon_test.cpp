#include "fec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <iterator>

#include "common/rng.hpp"
#include "fec/gf256.hpp"

namespace hg::fec {
namespace {

std::vector<std::vector<std::uint8_t>> random_shards(std::size_t k, std::size_t len,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint8_t>> shards(k, std::vector<std::uint8_t>(len));
  for (auto& s : shards) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return shards;
}

TEST(ReedSolomon, SystematicEncodingMatrixShape) {
  ReedSolomon rs(4, 2);
  const Matrix& e = rs.encoding_matrix();
  EXPECT_EQ(e.rows(), 6u);
  EXPECT_EQ(e.cols(), 4u);
}

// The generator as the V * inverse(V_top) product: V is the (k+m) x k
// matrix V[x][c] = (x+1)^c and V_top its first k rows.
Matrix vandermonde_generator(std::size_t k, std::size_t m) {
  Matrix v(k + m, k);
  Matrix top(k, k);
  for (std::size_t x = 0; x < k + m; ++x) {
    for (std::size_t c = 0; c < k; ++c) {
      const std::uint8_t entry =
          GF256::pow(static_cast<std::uint8_t>(x + 1), static_cast<unsigned>(c));
      v.set(x, c, entry);
      if (x < k) top.set(x, c, entry);
    }
  }
  const Matrix inv = top.inverted();
  Matrix e(k + m, k);
  for (std::size_t r = 0; r < k + m; ++r) {
    for (std::size_t i = 0; i < k; ++i) GF256::mul_add_slice(e.row(r), inv.row(i), k, v.at(r, i));
  }
  return e;
}

TEST(ReedSolomon, GeneratorMatchesVandermondeReference) {
  // The closed-form generator is byte for byte the product it replaced, so
  // every parity byte the codec has ever produced stays the same.
  const std::size_t ks[] = {101, 1, 1, 254, 128, 200, 50, 16, 5, 2};
  const std::size_t ms[] = {9, 0, 254, 1, 127, 55, 5, 4, 3, 2};
  for (std::size_t g = 0; g < std::size(ks); ++g) {
    EXPECT_EQ(ReedSolomon(ks[g], ms[g]).encoding_matrix(), vandermonde_generator(ks[g], ms[g]))
        << "k=" << ks[g] << " m=" << ms[g];
  }
}

TEST(ReedSolomon, AllDataPresentDecodesTrivially) {
  Rng rng(1);
  ReedSolomon rs(4, 2);
  auto data = random_shards(4, 64, rng);
  std::vector<std::optional<std::vector<std::uint8_t>>> shards(6);
  for (std::size_t i = 0; i < 4; ++i) shards[i] = data[i];
  auto out = rs.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, RecoversFromParityOnly) {
  Rng rng(2);
  ReedSolomon rs(3, 3);
  auto data = random_shards(3, 32, rng);
  auto parity = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> shards(6);
  for (std::size_t i = 0; i < 3; ++i) shards[3 + i] = parity[i];
  auto out = rs.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, TooFewShardsFails) {
  Rng rng(3);
  ReedSolomon rs(4, 2);
  auto data = random_shards(4, 16, rng);
  auto parity = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> shards(6);
  shards[0] = data[0];
  shards[4] = parity[0];
  shards[5] = parity[1];  // only 3 of 4 required
  EXPECT_FALSE(rs.decode(shards).has_value());
}

TEST(ReedSolomon, PaperGeometry101of110) {
  // The paper's window: 101 data + 9 parity. Losing any 9 packets is fine.
  Rng rng(4);
  ReedSolomon rs(101, 9);
  auto data = random_shards(101, 48, rng);
  auto parity = rs.encode(data);
  ASSERT_EQ(parity.size(), 9u);

  std::vector<std::optional<std::vector<std::uint8_t>>> shards(110);
  for (std::size_t i = 0; i < 101; ++i) shards[i] = data[i];
  for (std::size_t i = 0; i < 9; ++i) shards[101 + i] = parity[i];
  // Drop 9 random shards.
  std::vector<std::uint32_t> drop;
  rng.sample_indices(110, 9, drop);
  for (auto d : drop) shards[d].reset();

  auto out = rs.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);

  // Drop one more: decode must fail (MDS bound is tight).
  for (std::size_t i = 0; i < 110; ++i) {
    if (shards[i].has_value()) {
      shards[i].reset();
      break;
    }
  }
  EXPECT_FALSE(rs.decode(shards).has_value());
}

struct RsParam {
  std::size_t k, m, drop;
};

class ReedSolomonSweep : public ::testing::TestWithParam<RsParam> {};

TEST_P(ReedSolomonSweep, AnyKOfNReconstructs) {
  const auto [k, m, drop] = GetParam();
  Rng rng(1000 + k * 31 + m * 7 + drop);
  ReedSolomon rs(k, m);
  auto data = random_shards(k, 24, rng);
  auto parity = rs.encode(data);

  std::vector<std::optional<std::vector<std::uint8_t>>> shards(k + m);
  for (std::size_t i = 0; i < k; ++i) shards[i] = data[i];
  for (std::size_t i = 0; i < m; ++i) shards[k + i] = parity[i];

  std::vector<std::uint32_t> to_drop;
  rng.sample_indices(k + m, drop, to_drop);
  for (auto d : to_drop) shards[d].reset();

  auto out = rs.decode(shards);
  if (drop <= m) {
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
  } else {
    EXPECT_FALSE(out.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReedSolomonSweep,
    ::testing::Values(RsParam{1, 1, 0}, RsParam{1, 1, 1}, RsParam{1, 1, 2},
                      RsParam{2, 2, 2}, RsParam{4, 2, 1}, RsParam{4, 2, 2},
                      RsParam{4, 2, 3}, RsParam{8, 4, 4}, RsParam{10, 3, 3},
                      RsParam{16, 8, 8}, RsParam{32, 8, 8}, RsParam{50, 10, 10},
                      RsParam{101, 9, 0}, RsParam{101, 9, 5}, RsParam{101, 9, 9},
                      RsParam{101, 9, 10}, RsParam{100, 155, 150}),
    [](const ::testing::TestParamInfo<RsParam>& info) {
      std::string name = "k";
      name += std::to_string(info.param.k);
      name += "m";
      name += std::to_string(info.param.m);
      name += "drop";
      name += std::to_string(info.param.drop);
      return name;
    });

TEST(ReedSolomon, ManyRandomErasurePatterns) {
  Rng rng(9);
  ReedSolomon rs(10, 4);
  auto data = random_shards(10, 16, rng);
  auto parity = rs.encode(data);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(14);
    for (std::size_t i = 0; i < 10; ++i) shards[i] = data[i];
    for (std::size_t i = 0; i < 4; ++i) shards[10 + i] = parity[i];
    const std::size_t drop = rng.below(5);  // 0..4 <= m, always decodable
    std::vector<std::uint32_t> to_drop;
    rng.sample_indices(14, drop, to_drop);
    for (auto d : to_drop) shards[d].reset();
    auto out = rs.decode(shards);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
  }
}

TEST(ReedSolomon, DecodeRejectsMixedLengthsOnBothPaths) {
  // Wire input is untrusted: a wrong-length shard yields nullopt — on the
  // all-data fast path, on the elimination path, and even when the bad shard
  // is a carried-along extra that decoding would not otherwise touch.
  Rng rng(11);
  ReedSolomon rs(4, 2);
  auto data = random_shards(4, 16, rng);
  auto parity = rs.encode(data);

  // Fast path: all data present, one shard short.
  std::vector<std::optional<std::vector<std::uint8_t>>> shards(6);
  for (std::size_t i = 0; i < 4; ++i) shards[i] = data[i];
  shards[1]->pop_back();
  EXPECT_FALSE(rs.decode(shards).has_value());

  // Elimination path: a parity shard feeding reconstruction is long.
  shards[1] = data[1];
  shards[0].reset();
  shards[4] = parity[0];
  shards[4]->push_back(7);
  EXPECT_FALSE(rs.decode(shards).has_value());

  // A present-but-unused shard (beyond the first k) still fails the window:
  // equal length is a property of the whole shard set.
  shards[4] = parity[0];
  shards[5] = parity[1];
  shards[5]->pop_back();
  EXPECT_FALSE(rs.decode(shards).has_value());

  // Sanity: with lengths restored the same pattern decodes.
  shards[5] = parity[1];
  auto out = rs.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, ZeroParityIsTheDegenerateIdentityCode) {
  Rng rng(12);
  ReedSolomon rs(5, 0);
  auto data = random_shards(5, 8, rng);
  EXPECT_TRUE(rs.encode(data).empty());

  std::vector<std::optional<std::vector<std::uint8_t>>> shards(5);
  for (std::size_t i = 0; i < 5; ++i) shards[i] = data[i];
  auto out = rs.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);

  shards[3].reset();  // nothing to repair from
  EXPECT_FALSE(rs.decode(shards).has_value());
}

TEST(ReedSolomon, ErasureFuzzRandomSubsets) {
  // Fuzz the paper geometry: random k-of-n subsets always roundtrip, any
  // (k-1)-subset always fails, and whichever data shards survive pass
  // through unmodified (systematic passthrough) on every decode.
  Rng rng(13);
  const std::size_t k = 21, m = 6, n = k + m;
  ReedSolomon rs(k, m);
  auto data = random_shards(k, 12, rng);
  auto parity = rs.encode(data);
  auto full = [&](std::size_t i) -> const std::vector<std::uint8_t>& {
    return i < k ? data[i] : parity[i - k];
  };

  for (int trial = 0; trial < 300; ++trial) {
    const bool should_decode = trial % 2 == 0;
    const std::size_t keep = should_decode ? k + rng.below(m + 1) : k - 1;
    std::vector<std::uint32_t> kept;
    rng.sample_indices(n, keep, kept);
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(n);
    for (auto i : kept) shards[i] = full(i);

    auto out = rs.decode(shards);
    if (should_decode) {
      ASSERT_TRUE(out.has_value()) << "trial " << trial << " keep=" << keep;
      EXPECT_EQ(*out, data);
    } else {
      EXPECT_FALSE(out.has_value()) << "trial " << trial;
      // Systematic passthrough: the raw data shards that arrived are usable
      // as-is even though the window cannot be decoded.
      for (auto i : kept) {
        if (i < k) {
          EXPECT_EQ(*shards[i], data[i]);
        }
      }
    }
  }
}

TEST(ReedSolomon, ExhaustiveErasurePatternsSmallCode) {
  // All 2^8 present-shard sets of a k=5, m=3 code. Every set of at least k
  // shards decodes byte-exact, whichever parity rows it leaves (gaps among
  // them included), and repair() returns exactly the erased data shards;
  // every smaller set fails.
  constexpr std::size_t k = 5, m = 3, n = k + m;
  Rng rng(14);
  ReedSolomon rs(k, m);
  auto data = random_shards(k, 40, rng);  // vector body plus a scalar tail
  auto parity = rs.encode(data);
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    const auto present = [mask](std::size_t i) { return ((mask >> i) & 1u) != 0; };
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(n);
    std::vector<ReedSolomon::ShardView> views(n);
    std::vector<std::vector<std::uint8_t>> erased;
    for (std::size_t i = 0; i < n; ++i) {
      if (present(i)) {
        shards[i] = i < k ? data[i] : parity[i - k];
        views[i] = std::span<const std::uint8_t>(*shards[i]);
      } else if (i < k) {
        erased.push_back(data[i]);
      }
    }
    const auto out = rs.decode(shards);
    const auto repaired = rs.repair(views);
    if (static_cast<std::size_t>(std::popcount(mask)) >= k) {
      ASSERT_TRUE(out.has_value()) << "mask " << mask;
      EXPECT_EQ(*out, data) << "mask " << mask;
      ASSERT_TRUE(repaired.has_value()) << "mask " << mask;
      EXPECT_EQ(*repaired, erased) << "mask " << mask;
    } else {
      EXPECT_FALSE(out.has_value()) << "mask " << mask;
      EXPECT_FALSE(repaired.has_value()) << "mask " << mask;
    }
  }
}

TEST(ReedSolomon, EncodeIsLinear) {
  // parity(a XOR b) == parity(a) XOR parity(b) — linearity of the code.
  Rng rng(10);
  ReedSolomon rs(4, 2);
  auto a = random_shards(4, 8, rng);
  auto b = random_shards(4, 8, rng);
  auto pa = rs.encode(a);
  auto pb = rs.encode(b);
  std::vector<std::vector<std::uint8_t>> ab(4, std::vector<std::uint8_t>(8));
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 8; ++j) ab[i][j] = a[i][j] ^ b[i][j];
  }
  auto pab = rs.encode(ab);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(pab[i][j], pa[i][j] ^ pb[i][j]);
    }
  }
}

}  // namespace
}  // namespace hg::fec
