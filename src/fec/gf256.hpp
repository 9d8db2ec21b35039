// Arithmetic over GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
//
// Log/antilog tables make multiply/divide O(1); mul_add_slice is the bulk
// operation the Reed-Solomon coder spends its time in. The slice kernels
// are runtime-dispatched, first supported wins:
//   gfni   x86 with AVX2 + GFNI: GF2P8MULB multiplies 32 bytes per
//          instruction in this very field;
//   ssse3  x86 with SSSE3: split-nibble table lookups (two 16-entry tables
//          per coefficient, combined with PSHUFB);
//   neon   aarch64: the same split-nibble lookups with TBL;
//   scalar everywhere: the log/exp loop.
// Every kernel computes the same bytes — GF(256) arithmetic is exact, so the
// dispatch never affects simulation results, only throughput.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hg::fec {

class GF256 {
 public:
  enum class SimdLevel : std::uint8_t { kScalar, kSsse3, kNeon, kGfni };
  [[nodiscard]] static std::uint8_t add(std::uint8_t a, std::uint8_t b) {
    return a ^ b;  // characteristic 2: addition == subtraction == XOR
  }
  [[nodiscard]] static std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }
  [[nodiscard]] static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  [[nodiscard]] static std::uint8_t div(std::uint8_t a, std::uint8_t b);
  [[nodiscard]] static std::uint8_t inv(std::uint8_t a);
  // a^power for non-negative exponents.
  [[nodiscard]] static std::uint8_t pow(std::uint8_t a, unsigned power);
  // The field generator (3 for this polynomial) raised to `power`.
  [[nodiscard]] static std::uint8_t exp(unsigned power);

  // dst[i] ^= coeff * src[i] — the row operation of encode and decode.
  // Dispatches to the best slice kernel for this machine on first use.
  static void mul_add_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                            std::uint8_t coeff);
  // dst[i] = coeff * dst[i]
  static void scale_slice(std::uint8_t* dst, std::size_t n, std::uint8_t coeff);

  using MulAddFn = void (*)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                            std::uint8_t coeff);
  using ScaleFn = void (*)(std::uint8_t* dst, std::size_t n, std::uint8_t coeff);

  // One slice kernel built into this binary: its two slice operations, with
  // the contracts of mul_add_slice and scale_slice.
  struct Kernel {
    SimdLevel level;
    const char* name;
    MulAddFn mul_add;
    ScaleFn scale;
    bool supported;  // this CPU can run it
  };
  // Every kernel built for this target, in dispatch order (see the file
  // comment), ending with the scalar loops, which every CPU runs. Tests and
  // benches reach each supported kernel through it, not only the one
  // dispatch picked.
  [[nodiscard]] static std::span<const Kernel> kernels();

  // Which slice kernel the dispatcher selected for this process.
  [[nodiscard]] static SimdLevel simd_level();
  [[nodiscard]] static const char* simd_level_name();

 private:
  struct Tables {
    std::uint8_t exp[512];  // doubled so mul needs no modulo
    std::uint8_t log[256];
    std::uint8_t inv[256];
  };
  static const Tables& tables();

  // The portable log/exp loops: the scalar entry of kernels().
  static void mul_add_slice_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                                   std::uint8_t coeff);
  static void scale_slice_scalar(std::uint8_t* dst, std::size_t n, std::uint8_t coeff);
};

}  // namespace hg::fec
