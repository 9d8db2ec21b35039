// Systematic Reed-Solomon erasure code over GF(256).
//
// Encoding matrix: the top k rows are the identity (shards 0..k-1 are the
// data unchanged — *systematic* coding, which the paper relies on: a node
// that cannot decode a window still plays the raw stream packets it did
// receive); the bottom m rows make every k-subset of the n=k+m rows
// invertible. Parity row r is the Lagrange basis of the k data points
// evaluated at parity point r (shard x's point is x + 1), computed in closed
// form: k^2 multiplies for the shared denominators, then about 2*m*k field
// operations for the parity rows.
//
// Decoding is erasure-only and exploits the identity block: with e data
// shards erased, the first e present parity rows minus the contribution of
// the k-e present data shards leave e syndromes that depend on the erased
// shards alone (e*(k-e) slice operations); the e x e block of those parity
// rows at the erased columns is inverted and applied (e*e slice operations).
// repair() only reads the present data shards. Because the chosen rows
// are the first k present shards in index order, any k-subset being
// invertible makes the e x e block invertible too.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/matrix.hpp"

namespace hg::fec {

class ReedSolomon {
 public:
  // One shard as the decoder sees it: a view of its bytes, or nullopt when
  // the shard was erased.
  using ShardView = std::optional<std::span<const std::uint8_t>>;

  // k data shards, m parity shards; k + m <= 255.
  ReedSolomon(std::size_t k, std::size_t m);

  // data: k equally sized shards. Returns m parity shards of the same size.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode(
      std::span<const std::vector<std::uint8_t>> data) const;

  // shards: views of all n shards. Rebuilds the erased data shards and
  // returns them in ascending index order (none when every data shard is
  // present), or std::nullopt when fewer than k shards are present or the
  // present shards — every one of them, used or not — differ in length.
  [[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>> repair(
      std::span<const ShardView> shards) const;

  // shards: n entries, missing ones nullopt. Returns the k data shards if
  // repair() succeeds, std::nullopt otherwise.
  [[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>> decode(
      std::span<const std::optional<std::vector<std::uint8_t>>> shards) const;

  [[nodiscard]] const Matrix& encoding_matrix() const { return enc_; }

 private:
  std::size_t k_;
  std::size_t m_;
  Matrix enc_;  // (k+m) x k
};

}  // namespace hg::fec
