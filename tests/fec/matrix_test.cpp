#include "fec/matrix.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fec/gf256.hpp"

namespace hg::fec {
namespace {

Matrix random_invertible(std::size_t n, Rng& rng) {
  // Random matrices over GF(256) are invertible with probability ~0.996;
  // retry until one is (verified by inverting).
  for (;;) {
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.set(r, c, static_cast<std::uint8_t>(rng.below(256)));
      }
    }
    // Cheap invertibility probe: try to invert; inverted() asserts on
    // singular, so do a manual rank check first.
    Matrix work = m;
    bool singular = false;
    for (std::size_t col = 0; col < n && !singular; ++col) {
      std::size_t pivot = col;
      while (pivot < n && work.at(pivot, col) == 0) ++pivot;
      if (pivot == n) {
        singular = true;
        break;
      }
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c) std::swap(work.row(col)[c], work.row(pivot)[c]);
      }
      const std::uint8_t inv = GF256::inv(work.at(col, col));
      GF256::scale_slice(work.row(col), n, inv);
      for (std::size_t r = col + 1; r < n; ++r) {
        GF256::mul_add_slice(work.row(r), work.row(col), n, work.at(r, col));
      }
    }
    if (!singular) return m;
  }
}

// The GF(256) matrix product a * b.
Matrix product(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < b.cols(); ++c) {
      std::uint8_t sum = 0;
      for (std::size_t i = 0; i < a.cols(); ++i) {
        sum = GF256::add(sum, GF256::mul(a.at(r, i), b.at(i, c)));
      }
      out.set(r, c, sum);
    }
  }
  return out;
}

TEST(Matrix, IdentityTimesAnything) {
  Rng rng(5);
  Matrix m = random_invertible(8, rng);
  EXPECT_EQ(product(Matrix::identity(8), m), m);
  EXPECT_EQ(product(m, Matrix::identity(8)), m);
}

TEST(Matrix, InverseTimesSelfIsIdentity) {
  Rng rng(6);
  for (std::size_t n : {1UL, 2UL, 3UL, 8UL, 16UL, 32UL}) {
    Matrix m = random_invertible(n, rng);
    EXPECT_EQ(product(m, m.inverted()), Matrix::identity(n)) << "n=" << n;
    EXPECT_EQ(product(m.inverted(), m), Matrix::identity(n)) << "n=" << n;
  }
}

}  // namespace
}  // namespace hg::fec
