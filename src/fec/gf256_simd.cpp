// Runtime-dispatched SIMD kernels for the GF(256) slice operations.
//
// GFNI (x86 with AVX2 + GFNI): GF2P8MULB multiplies each byte pair modulo
// x^8+x^4+x^3+x+1, the field of the log/exp tables, so a slice operation is
// one broadcast coefficient and one multiply (plus an XOR for mul_add) per
// 32 bytes, with no tables at all.
//
// Elsewhere: split-nibble table lookup. For a fixed coefficient c, two
// 16-entry tables lo[x] = c*x and hi[x] = c*(x<<4) give, for any byte
// s = (h<<4)|l, c*s = lo[l] ^ hi[h] by linearity of GF(2^8) multiplication
// over XOR. PSHUFB (SSSE3) and TBL (NEON) perform sixteen such lookups per
// instruction, so one window-sized mul_add touches each byte with ~6 vector
// ops instead of two scalar table loads and a branch. The tables of all 256
// coefficients form one 8 KB constant built at compile time: a slice call
// loads its coefficient's 32 bytes instead of computing 32 products, which
// matters because encode and decode make thousands of slice calls per window.
// The kernels' sub-vector tails use the same tables.
//
// The scalar fallback in gf256.cpp computes the exact same field elements —
// dispatch changes throughput only, never bytes. Selection happens once per
// process from CPU capability (not configuration), so results stay identical
// across machines with and without the fast paths.
#include "fec/gf256.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HG_GF256_HAVE_X86_KERNELS 1
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>
#define HG_GF256_HAVE_NEON_KERNEL 1
#endif

namespace hg::fec {
namespace {

// 2 x 16-entry product tables for one coefficient (see file comment),
// aligned so that one coefficient's tables never straddle a cache line.
struct alignas(32) NibbleTables {
  std::uint8_t lo[16];
  std::uint8_t hi[16];

  [[nodiscard]] std::uint8_t product(std::uint8_t s) const {
    return static_cast<std::uint8_t>(lo[s & 0x0f] ^ hi[s >> 4]);
  }
};

// Shift-and-reduce multiply modulo 0x11b: the same field as the log/exp
// tables, usable in a constant expression.
constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b != 0) {
    if ((b & 1) != 0) p = static_cast<std::uint8_t>(p ^ a);
    a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) != 0 ? 0x1b : 0x00));
    b = static_cast<std::uint8_t>(b >> 1);
  }
  return p;
}

constexpr std::array<NibbleTables, 256> kNibbleTables = [] {
  std::array<NibbleTables, 256> all{};
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned x = 0; x < 16; ++x) {
      all[c].lo[x] = gf_mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x));
      all[c].hi[x] = gf_mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x << 4));
    }
  }
  return all;
}();
static_assert(sizeof(kNibbleTables) == 8192);

#if HG_GF256_HAVE_X86_KERNELS

__attribute__((target("avx2,gfni"))) void mul_add_slice_gfni(std::uint8_t* dst,
                                                             const std::uint8_t* src, std::size_t n,
                                                             std::uint8_t coeff) {
  if (coeff == 0) return;
  const __m256i c = _mm256_set1_epi8(static_cast<char>(coeff));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_gf2p8mul_epi8(s, c)));
  }
  const NibbleTables& t = kNibbleTables[coeff];
  for (; i < n; ++i) dst[i] ^= t.product(src[i]);
}

__attribute__((target("avx2,gfni"))) void scale_slice_gfni(std::uint8_t* dst, std::size_t n,
                                                           std::uint8_t coeff) {
  if (coeff == 1) return;
  const __m256i c = _mm256_set1_epi8(static_cast<char>(coeff));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_gf2p8mul_epi8(s, c));
  }
  const NibbleTables& t = kNibbleTables[coeff];
  for (; i < n; ++i) dst[i] = t.product(dst[i]);
}

__attribute__((target("ssse3"))) void mul_add_slice_ssse3(std::uint8_t* dst,
                                                          const std::uint8_t* src, std::size_t n,
                                                          std::uint8_t coeff) {
  if (coeff == 0) return;
  const NibbleTables& t = kNibbleTables[coeff];
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = _mm_and_si128(s, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
    const __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, prod));
  }
  for (; i < n; ++i) dst[i] ^= t.product(src[i]);
}

__attribute__((target("ssse3"))) void scale_slice_ssse3(std::uint8_t* dst, std::size_t n,
                                                        std::uint8_t coeff) {
  if (coeff == 1) return;
  if (coeff == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const NibbleTables& t = kNibbleTables[coeff];
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i lo = _mm_and_si128(s, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
    const __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), prod);
  }
  for (; i < n; ++i) dst[i] = t.product(dst[i]);
}

#endif  // HG_GF256_HAVE_X86_KERNELS

#if HG_GF256_HAVE_NEON_KERNEL

void mul_add_slice_neon(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                        std::uint8_t coeff) {
  if (coeff == 0) return;
  const NibbleTables& t = kNibbleTables[coeff];
  const uint8x16_t tlo = vld1q_u8(t.lo);
  const uint8x16_t thi = vld1q_u8(t.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t lo = vandq_u8(s, mask);
    const uint8x16_t hi = vshrq_n_u8(s, 4);
    const uint8x16_t prod = veorq_u8(vqtbl1q_u8(tlo, lo), vqtbl1q_u8(thi, hi));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] ^= t.product(src[i]);
}

void scale_slice_neon(std::uint8_t* dst, std::size_t n, std::uint8_t coeff) {
  if (coeff == 1) return;
  if (coeff == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const NibbleTables& t = kNibbleTables[coeff];
  const uint8x16_t tlo = vld1q_u8(t.lo);
  const uint8x16_t thi = vld1q_u8(t.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(dst + i);
    const uint8x16_t lo = vandq_u8(s, mask);
    const uint8x16_t hi = vshrq_n_u8(s, 4);
    vst1q_u8(dst + i, veorq_u8(vqtbl1q_u8(tlo, lo), vqtbl1q_u8(thi, hi)));
  }
  for (; i < n; ++i) dst[i] = t.product(dst[i]);
}

#endif  // HG_GF256_HAVE_NEON_KERNEL

const GF256::Kernel& dispatched() {
  // The first supported kernel; the scalar one ends the list and every CPU
  // supports it.
  static const GF256::Kernel& k =
      *std::ranges::find_if(GF256::kernels(), &GF256::Kernel::supported);
  return k;
}

}  // namespace

std::span<const GF256::Kernel> GF256::kernels() {
  static const auto all = [] {
#if HG_GF256_HAVE_X86_KERNELS
    // The table may be built from a static initializer, before the runtime
    // has filled in the CPU model __builtin_cpu_supports reads.
    __builtin_cpu_init();
    const bool gfni = __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("gfni") != 0;
    const bool ssse3 = __builtin_cpu_supports("ssse3") != 0;
    return std::array{
        Kernel{SimdLevel::kGfni, "gfni", &mul_add_slice_gfni, &scale_slice_gfni, gfni},
        Kernel{SimdLevel::kSsse3, "ssse3", &mul_add_slice_ssse3, &scale_slice_ssse3, ssse3},
        Kernel{SimdLevel::kScalar, "scalar", &mul_add_slice_scalar, &scale_slice_scalar, true},
    };
#elif HG_GF256_HAVE_NEON_KERNEL
    return std::array{
        Kernel{SimdLevel::kNeon, "neon", &mul_add_slice_neon, &scale_slice_neon, true},
        Kernel{SimdLevel::kScalar, "scalar", &mul_add_slice_scalar, &scale_slice_scalar, true},
    };
#else
    return std::array{
        Kernel{SimdLevel::kScalar, "scalar", &mul_add_slice_scalar, &scale_slice_scalar, true},
    };
#endif
  }();
  return all;
}

void GF256::mul_add_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                          std::uint8_t coeff) {
  dispatched().mul_add(dst, src, n, coeff);
}

void GF256::scale_slice(std::uint8_t* dst, std::size_t n, std::uint8_t coeff) {
  dispatched().scale(dst, n, coeff);
}

GF256::SimdLevel GF256::simd_level() { return dispatched().level; }

const char* GF256::simd_level_name() { return dispatched().name; }

}  // namespace hg::fec
