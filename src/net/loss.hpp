// Datagram loss models.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"

namespace hg::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  // True if the datagram src -> dst is dropped in flight.
  [[nodiscard]] virtual bool lost(NodeId src, NodeId dst, Rng& rng) = 0;
};

class NoLoss final : public LossModel {
 public:
  bool lost(NodeId, NodeId, Rng&) override { return false; }
};

// Independent per-datagram loss.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p) : p_(p) {}
  bool lost(NodeId, NodeId, Rng& rng) override { return rng.chance(p_); }

 private:
  double p_;
};

}  // namespace hg::net
