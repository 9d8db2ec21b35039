// Upload-capability distributions (paper Table 1 + the uniform "dist2" of
// Fig. 2 and the unconstrained setting of Fig. 1).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace hg::scenario {

struct BandwidthClass {
  std::string name;      // e.g. "256kbps"
  BitRate capability;
  double fraction = 0;   // share of the population
};

struct NodeBandwidth {
  BitRate capability;
  int class_index = 0;   // index into BandwidthDistribution::classes
};

class BandwidthDistribution {
 public:
  // --- the paper's distributions -----------------------------------------
  // ref-691: CSR 1.15, avg 691 kbps; 10% @2 Mbps, 50% @768 kbps, 40% @256 kbps
  [[nodiscard]] static BandwidthDistribution ref691();
  // ref-724: CSR 1.20, avg 724 kbps; 15% @2 Mbps, 39% @768 kbps, 46% @256 kbps
  [[nodiscard]] static BandwidthDistribution ref724();
  // ms-691 ("dist1"): CSR 1.15, avg 691 kbps; 5% @3 Mbps, 10% @1 Mbps, 85% @512 kbps
  [[nodiscard]] static BandwidthDistribution ms691();
  // "dist2": continuous uniform with the same 691 kbps average. The paper
  // does not give the support; we use ±50% around the mean (pinned by
  // Distribution.Dist2UniformRange) and make the width configurable.
  [[nodiscard]] static BandwidthDistribution dist2_uniform(double half_width = 0.5);
  // Fig. 1: no upload caps at all.
  [[nodiscard]] static BandwidthDistribution unconstrained();
  // Single homogeneous class (tests, ablations).
  [[nodiscard]] static BandwidthDistribution homogeneous(BitRate capability);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<BandwidthClass>& classes() const { return classes_; }
  [[nodiscard]] double average_kbps() const;
  // Capability supply ratio for a given stream rate (paper: avg / rate).
  [[nodiscard]] double csr(double stream_rate_kbps) const {
    return average_kbps() / stream_rate_kbps;
  }

  // Deterministically assigns capabilities to n nodes: class sizes by
  // largest-remainder apportionment, then a seeded shuffle so classes are
  // not correlated with node ids.
  [[nodiscard]] std::vector<NodeBandwidth> assign(std::size_t n, Rng& rng) const;

 private:
  enum class Kind { kClasses, kUniformRange, kUnconstrained };

  std::string name_;
  Kind kind_ = Kind::kClasses;
  std::vector<BandwidthClass> classes_;
  double uniform_lo_kbps_ = 0;
  double uniform_hi_kbps_ = 0;
};

}  // namespace hg::scenario
