#include "fec/matrix.hpp"

#include "fec/gf256.hpp"

namespace hg::fec {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i, 1);
  return m;
}

Matrix Matrix::inverted() const {
  HG_ASSERT(rows_ == cols_);
  const std::size_t n = rows_;
  Matrix work = *this;
  Matrix inv = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find pivot.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    HG_ASSERT_MSG(pivot < n, "matrix is singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.row(col)[c], work.row(pivot)[c]);
        std::swap(inv.row(col)[c], inv.row(pivot)[c]);
      }
    }
    // Normalize pivot row.
    const std::uint8_t p = work.at(col, col);
    if (p != 1) {
      const std::uint8_t pinv = GF256::inv(p);
      GF256::scale_slice(work.row(col), n, pinv);
      GF256::scale_slice(inv.row(col), n, pinv);
    }
    // Eliminate the column everywhere else.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t factor = work.at(r, col);
      if (factor == 0) continue;
      GF256::mul_add_slice(work.row(r), work.row(col), n, factor);
      GF256::mul_add_slice(inv.row(r), inv.row(col), n, factor);
    }
  }
  return inv;
}

}  // namespace hg::fec
