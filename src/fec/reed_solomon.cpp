#include "fec/reed_solomon.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "fec/gf256.hpp"

namespace hg::fec {

namespace {

// Shard x's evaluation point: distinct and nonzero for every x < 255.
std::uint8_t point(std::size_t x) { return static_cast<std::uint8_t>(x + 1); }

}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m) : k_(k), m_(m) {
  // m == 0 is the degenerate parity-free code: encode() returns no shards
  // and decode() only succeeds when every data shard is present. WindowCodec
  // relies on it for the retransmission-only ablation arm.
  HG_ASSERT(k >= 1);
  HG_ASSERT_MSG(k + m <= 255, "GF(256) supports at most 255 shards");
  enc_ = Matrix(k + m, k);
  for (std::size_t i = 0; i < k; ++i) enc_.set(i, i, 1);
  // Parity row r holds the Lagrange basis of the data points evaluated at
  // point(r), writing d(a, b) = point(a) - point(b):
  //   enc[r][i] = prod_{j != i} d(r, j) / prod_{j != i} d(i, j)
  //             = full(r) / (d(r, i) * denom(i)),  full(r) = prod_j d(r, j).
  // That is the unique row e with sum_i e[i] * p(point(i)) == p(point(r)) for
  // every polynomial p of degree < k, i.e. row r of V * inverse(V_top) for
  // the (k+m) x k matrix V[x][c] = point(x)^c: an MDS generator whose top k
  // rows are the identity.
  const auto d = [](std::size_t a, std::size_t b) { return GF256::sub(point(a), point(b)); };
  std::vector<std::uint8_t> denom(k, 1);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (j != i) denom[i] = GF256::mul(denom[i], d(i, j));
    }
  }
  for (std::size_t r = k; r < k + m; ++r) {
    std::uint8_t full = 1;
    for (std::size_t j = 0; j < k; ++j) full = GF256::mul(full, d(r, j));
    for (std::size_t i = 0; i < k; ++i) {
      enc_.set(r, i, GF256::div(full, GF256::mul(d(r, i), denom[i])));
    }
  }
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode(
    std::span<const std::vector<std::uint8_t>> data) const {
  HG_ASSERT(data.size() == k_);
  const std::size_t shard_len = data[0].size();
  for (const auto& d : data) HG_ASSERT_MSG(d.size() == shard_len, "shards must be equal size");

  std::vector<std::vector<std::uint8_t>> parity(m_, std::vector<std::uint8_t>(shard_len, 0));
  for (std::size_t p = 0; p < m_; ++p) {
    const std::uint8_t* coeffs = enc_.row(k_ + p);
    for (std::size_t d = 0; d < k_; ++d) {
      GF256::mul_add_slice(parity[p].data(), data[d].data(), shard_len, coeffs[d]);
    }
  }
  return parity;
}

std::optional<std::vector<std::vector<std::uint8_t>>> ReedSolomon::repair(
    std::span<const ShardView> shards) const {
  HG_ASSERT(shards.size() == k_ + m_);

  // Shards come off the wire, so treat malformed input as undecodable, not
  // as a programming error: every present shard — whether it feeds the
  // repair or is merely carried along — must agree on length.
  std::size_t shard_len = 0;
  bool saw_present = false;
  for (const ShardView& s : shards) {
    if (!s.has_value()) continue;
    if (!saw_present) {
      shard_len = s->size();
      saw_present = true;
    } else if (s->size() != shard_len) {
      return std::nullopt;
    }
  }

  std::vector<std::size_t> erased;
  for (std::size_t i = 0; i < k_; ++i) {
    if (!shards[i].has_value()) erased.push_back(i);
  }
  const std::size_t e = erased.size();
  std::vector<std::vector<std::uint8_t>> repaired;
  if (e == 0) return repaired;

  // The first e present parity rows complete the first k present shards.
  std::vector<std::size_t> rows;
  for (std::size_t i = k_; i < k_ + m_ && rows.size() < e; ++i) {
    if (shards[i].has_value()) rows.push_back(i);
  }
  if (rows.size() < e) return std::nullopt;

  // Syndromes: each parity shard minus its present data terms, leaving
  // sum over erased c of enc[row][c] * data[c].
  std::vector<std::uint8_t> syndromes(e * shard_len);
  auto syndrome = [&](std::size_t j) { return syndromes.data() + j * shard_len; };
  for (std::size_t j = 0; j < e; ++j) {
    std::copy(shards[rows[j]]->begin(), shards[rows[j]]->end(), syndrome(j));
  }
  for (std::size_t c = 0; c < k_; ++c) {
    if (!shards[c].has_value()) continue;
    for (std::size_t j = 0; j < e; ++j) {
      GF256::mul_add_slice(syndrome(j), shards[c]->data(), shard_len, enc_.row(rows[j])[c]);
    }
  }

  Matrix block(e, e);
  for (std::size_t j = 0; j < e; ++j) {
    for (std::size_t i = 0; i < e; ++i) block.set(j, i, enc_.row(rows[j])[erased[i]]);
  }
  const Matrix inv = block.inverted();

  repaired.assign(e, std::vector<std::uint8_t>(shard_len, 0));
  for (std::size_t i = 0; i < e; ++i) {
    for (std::size_t j = 0; j < e; ++j) {
      GF256::mul_add_slice(repaired[i].data(), syndrome(j), shard_len, inv.at(i, j));
    }
  }
  return repaired;
}

std::optional<std::vector<std::vector<std::uint8_t>>> ReedSolomon::decode(
    std::span<const std::optional<std::vector<std::uint8_t>>> shards) const {
  std::vector<ShardView> views(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) views[i] = std::span<const std::uint8_t>(*shards[i]);
  }
  auto repaired = repair(views);
  if (!repaired.has_value()) return std::nullopt;

  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(k_);
  std::size_t next = 0;
  for (std::size_t d = 0; d < k_; ++d) {
    if (shards[d].has_value()) {
      out.push_back(*shards[d]);
    } else {
      out.push_back(std::move((*repaired)[next++]));
    }
  }
  return out;
}

}  // namespace hg::fec
