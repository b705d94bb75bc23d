#include "dht/id_space.hpp"

#include <cmath>
#include <stdexcept>

namespace continu::dht {

IdSpace::IdSpace(std::uint64_t size) : size_(size), levels_(util::dht_levels(size)) {
  if (!util::is_power_of_two(size) || size < 2) {
    throw std::invalid_argument("IdSpace: size must be a power of two >= 2");
  }
}

std::pair<NodeId, NodeId> IdSpace::level_arc(NodeId node, unsigned level) const noexcept {
  const std::uint64_t lo_off = 1ULL << (level - 1);
  const std::uint64_t hi_off = 1ULL << level;
  const auto lo = static_cast<NodeId>(util::ring_add(node, lo_off, size_));
  const auto hi = static_cast<NodeId>(util::ring_add(node, hi_off % size_, size_));
  return {lo, hi};
}

double IdSpace::hop_upper_bound() const noexcept {
  return std::log(static_cast<double>(size_)) / std::log(4.0 / 3.0);
}

}  // namespace continu::dht
