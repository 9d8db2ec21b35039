#include "sim/simulator.hpp"

namespace hg::sim {

Simulator::Simulator(std::uint64_t seed) : root_rng_(seed) {}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t ran = 0;
  while (!queue_.prune_and_empty()) {
    if (queue_.next_time() > until) break;
    if (queue_.run_next(now_)) ++ran;
  }
  if (now_ < until) now_ = until;
  return ran;
}

std::uint64_t Simulator::run_before(SimTime until) {
  std::uint64_t ran = 0;
  while (!queue_.prune_and_empty()) {
    if (queue_.next_time() >= until) break;
    if (queue_.run_next(now_)) ++ran;
  }
  if (now_ < until) now_ = until;
  return ran;
}

std::uint64_t Simulator::run_to_completion() {
  std::uint64_t ran = 0;
  while (queue_.run_next(now_)) ++ran;
  return ran;
}

}  // namespace hg::sim
