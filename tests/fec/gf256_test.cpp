#include "fec/gf256.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hg::fec {

// Names a kernel test parameter by the kernel's name (gtest finds it by ADL),
// not by its bytes.
void PrintTo(const GF256::Kernel& kernel, std::ostream* os) { *os << kernel.name; }

namespace {

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0x57, 0x83), 0x57 ^ 0x83);
  EXPECT_EQ(GF256::add(0xff, 0xff), 0);
}

TEST(GF256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(GF256::mul(1, static_cast<std::uint8_t>(a)), a);
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(GF256, MulKnownVector) {
  // 0x57 * 0x83 = 0xc1 under the AES polynomial 0x11b.
  EXPECT_EQ(GF256::mul(0x57, 0x83), 0xc1);
  EXPECT_EQ(GF256::mul(0x02, 0x80), 0x1b);  // overflow reduction case
}

TEST(GF256, MulCommutative) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 11) {
      EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                GF256::mul(static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(GF256, AlgebraOverAllPairs) {
  // Commutativity, distributivity, and division/inverse consistency over the
  // full 256 x 256 square (the strided tests above keep their historical
  // role as quick pinpointed failures; this is the exhaustive sweep).
  for (int ai = 0; ai < 256; ++ai) {
    const auto a = static_cast<std::uint8_t>(ai);
    for (int bi = 0; bi < 256; ++bi) {
      const auto b = static_cast<std::uint8_t>(bi);
      const std::uint8_t ab = GF256::mul(a, b);
      ASSERT_EQ(ab, GF256::mul(b, a));
      // Distributivity a*(b+c) == a*b + a*c for a fixed c-set (a full cube
      // would be 16M iterations for no extra coverage of the table logic).
      for (const std::uint8_t c : {std::uint8_t{1}, std::uint8_t{0x53}, std::uint8_t{0xff}}) {
        ASSERT_EQ(GF256::mul(a, GF256::add(b, c)), GF256::add(ab, GF256::mul(a, c)));
        ASSERT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
      }
      if (b != 0) {
        ASSERT_EQ(GF256::div(ab, b), a);
        ASSERT_EQ(GF256::mul(b, GF256::inv(b)), 1);
      }
    }
  }
}

TEST(GF256, MulAssociative) {
  for (int a = 1; a < 256; a += 17) {
    for (int b = 1; b < 256; b += 23) {
      for (int c = 1; c < 256; c += 31) {
        const auto ab_c = GF256::mul(GF256::mul(static_cast<std::uint8_t>(a),
                                                static_cast<std::uint8_t>(b)),
                                     static_cast<std::uint8_t>(c));
        const auto a_bc = GF256::mul(static_cast<std::uint8_t>(a),
                                     GF256::mul(static_cast<std::uint8_t>(b),
                                                static_cast<std::uint8_t>(c)));
        EXPECT_EQ(ab_c, a_bc);
      }
    }
  }
}

TEST(GF256, DistributiveOverAdd) {
  for (int a = 0; a < 256; a += 13) {
    for (int b = 0; b < 256; b += 19) {
      for (int c = 0; c < 256; c += 29) {
        const auto lhs = GF256::mul(static_cast<std::uint8_t>(a),
                                    GF256::add(static_cast<std::uint8_t>(b),
                                               static_cast<std::uint8_t>(c)));
        const auto rhs = GF256::add(
            GF256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
            GF256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(c)));
        EXPECT_EQ(lhs, rhs);
      }
    }
  }
}

TEST(GF256, EveryNonZeroHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = GF256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(GF256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; a += 5) {
    for (int b = 1; b < 256; b += 7) {
      const auto prod = GF256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
      EXPECT_EQ(GF256::div(prod, static_cast<std::uint8_t>(b)), a);
    }
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 37) {
    std::uint8_t acc = 1;
    for (unsigned p = 0; p < 20; ++p) {
      EXPECT_EQ(GF256::pow(static_cast<std::uint8_t>(a), p), acc);
      acc = GF256::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

TEST(GF256, PowExhaustiveExponents) {
  // Every base against every exponent in one full group period, checked
  // against repeated multiplication.
  for (int ai = 0; ai < 256; ++ai) {
    const auto a = static_cast<std::uint8_t>(ai);
    std::uint8_t acc = 1;
    for (unsigned p = 0; p < 255; ++p) {
      ASSERT_EQ(GF256::pow(a, p), a == 0 && p > 0 ? 0 : acc) << "a=" << ai << " p=" << p;
      acc = GF256::mul(acc, a);
    }
  }
}

TEST(GF256, PowHugeExponentRegression) {
  // Regression for the 32-bit wraparound: log[a] * power used to be computed
  // in unsigned before the mod-255 reduction, so any power past ~16.9M could
  // wrap mod 2^32 and land on the wrong field element. a^power must depend
  // on power only through power mod 255 (the multiplicative group order).
  const unsigned huge_exponents[] = {
      16'900'000u,   // first territory where log[a]=254 overflows
      0x0fff'ffffu,  //
      0xffff'ff00u,  // near the top of the 32-bit range
      0xffff'ffffu,  //
  };
  for (int ai = 1; ai < 256; ++ai) {
    const auto a = static_cast<std::uint8_t>(ai);
    for (const unsigned big : huge_exponents) {
      ASSERT_EQ(GF256::pow(a, big), GF256::pow(a, big % 255u)) << "a=" << ai << " p=" << big;
    }
  }
  // Zero stays the exception: 0^p == 0 for every positive p, however huge
  // (0^(255k) must NOT collapse to 0^0 == 1).
  for (const unsigned big : huge_exponents) EXPECT_EQ(GF256::pow(0, big), 0);
}

TEST(GF256, GeneratorHasFullOrder) {
  // exp() cycles through all 255 non-zero elements.
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    const auto v = GF256::exp(i);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "generator order < 255";
    seen[v] = true;
  }
}

TEST(GF256, MulAddSliceMatchesScalar) {
  std::vector<std::uint8_t> dst(257), src(257), expect(257);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<std::uint8_t>(i * 31);
    src[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::uint8_t coeff = 0x8e;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    expect[i] = GF256::add(dst[i], GF256::mul(coeff, src[i]));
  }
  GF256::mul_add_slice(dst.data(), src.data(), dst.size(), coeff);
  EXPECT_EQ(dst, expect);
}

TEST(GF256, MulAddSliceCoeffZeroIsNoop) {
  std::vector<std::uint8_t> dst{1, 2, 3}, src{9, 9, 9};
  auto orig = dst;
  GF256::mul_add_slice(dst.data(), src.data(), dst.size(), 0);
  EXPECT_EQ(dst, orig);
}

TEST(GF256, ScaleSliceMatchesScalar) {
  std::vector<std::uint8_t> dst(100);
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = static_cast<std::uint8_t>(i + 1);
  auto expect = dst;
  const std::uint8_t coeff = 0x1d;
  for (auto& v : expect) v = GF256::mul(v, coeff);
  GF256::scale_slice(dst.data(), dst.size(), coeff);
  EXPECT_EQ(dst, expect);
}

TEST(GF256, SimdLevelIsNamed) {
  // Whatever the dispatcher picked must have a printable name, the name of
  // its entry in kernels().
  EXPECT_STRNE(GF256::simd_level_name(), "");
  if (GF256::simd_level() == GF256::SimdLevel::kScalar) {
    EXPECT_STREQ(GF256::simd_level_name(), "scalar");
  }
  bool listed = false;
  for (const GF256::Kernel& k : GF256::kernels()) {
    if (k.level == GF256::simd_level()) {
      EXPECT_STREQ(k.name, GF256::simd_level_name());
      EXPECT_TRUE(k.supported);
      listed = true;
    }
  }
  EXPECT_TRUE(listed);
}

TEST(GF256, DispatchPrefersGfni) {
#if defined(__x86_64__) || defined(__i386__)
  const bool gfni = __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("gfni") != 0;
#else
  const bool gfni = false;
#endif
  EXPECT_EQ(GF256::simd_level() == GF256::SimdLevel::kGfni, gfni) << GF256::simd_level_name();
}

// Randomized slices at awkward lengths (16- and 32-byte vector bodies with
// and without scalar tails, and slices shorter than one vector), every
// coefficient, compared with GF256::mul byte by byte. The +1 offset makes
// every view misaligned.
void expect_mul_add_matches_scalar(GF256::MulAddFn mul_add) {
  Rng rng(0xf3c5);
  for (const std::size_t len : {1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1316}) {
    std::vector<std::uint8_t> src(len + 1), base(len + 1);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : base) b = static_cast<std::uint8_t>(rng.below(256));
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<std::uint8_t>(c);
      std::vector<std::uint8_t> got = base;
      std::vector<std::uint8_t> expect = base;
      mul_add(got.data() + 1, src.data() + 1, len, coeff);
      for (std::size_t i = 1; i <= len; ++i) expect[i] ^= GF256::mul(coeff, src[i]);
      ASSERT_EQ(got, expect) << "len=" << len << " coeff=" << c;
    }
  }
}

void expect_scale_matches_scalar(GF256::ScaleFn scale) {
  Rng rng(0xa117);
  for (const std::size_t len : {1, 16, 31, 32, 33, 63, 64, 65, 1316}) {
    std::vector<std::uint8_t> base(len + 1);
    for (auto& b : base) b = static_cast<std::uint8_t>(rng.below(256));
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<std::uint8_t>(c);
      std::vector<std::uint8_t> got = base;
      std::vector<std::uint8_t> expect = base;
      scale(got.data() + 1, len, coeff);
      for (std::size_t i = 1; i <= len; ++i) expect[i] = GF256::mul(coeff, expect[i]);
      ASSERT_EQ(got, expect) << "len=" << len << " coeff=" << c;
    }
  }
}

// The dispatched entry points, as the codec calls them.
TEST(GF256, MulAddSliceSimdMatchesScalarEveryCoeff) {
  expect_mul_add_matches_scalar(&GF256::mul_add_slice);
}

TEST(GF256, ScaleSliceSimdMatchesScalarEveryCoeff) {
  expect_scale_matches_scalar(&GF256::scale_slice);
}

// Every kernel built into the binary, not just the one dispatch picked: the
// fallbacks are the only paths on CPUs without the faster instructions. A
// kernel this CPU cannot run is skipped by name.
class GF256Kernel : public ::testing::TestWithParam<GF256::Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) GTEST_SKIP() << "this CPU cannot run kernel " << GetParam().name;
  }
};

TEST_P(GF256Kernel, MulAddSliceMatchesScalarEveryCoeff) {
  expect_mul_add_matches_scalar(GetParam().mul_add);
}

TEST_P(GF256Kernel, ScaleSliceMatchesScalarEveryCoeff) {
  expect_scale_matches_scalar(GetParam().scale);
}

std::string kernel_name(const ::testing::TestParamInfo<GF256::Kernel>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(, GF256Kernel, ::testing::ValuesIn(GF256::kernels()), kernel_name);

}  // namespace
}  // namespace hg::fec
