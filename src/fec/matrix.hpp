// Dense matrices over GF(256): storage for the Reed-Solomon generator and
// the Gauss-Jordan inverse that erasure repair applies to the e x e block of
// that generator at the erased shards.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace hg::fec {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] std::uint8_t at(std::size_t r, std::size_t c) const {
    HG_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  void set(std::size_t r, std::size_t c, std::uint8_t v) {
    HG_ASSERT(r < rows_ && c < cols_);
    data_[r * cols_ + c] = v;
  }
  [[nodiscard]] const std::uint8_t* row(std::size_t r) const { return &data_[r * cols_]; }
  [[nodiscard]] std::uint8_t* row(std::size_t r) { return &data_[r * cols_]; }

  // Gauss-Jordan inverse. Asserts the matrix is square and invertible
  // (callers only invert matrices that are invertible by construction).
  [[nodiscard]] Matrix inverted() const;

  [[nodiscard]] bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace hg::fec
