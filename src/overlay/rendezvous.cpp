#include "overlay/rendezvous.hpp"

#include <algorithm>
#include <stdexcept>

namespace continu::overlay {

RendezvousServer::RendezvousServer(const dht::RingDirectory& directory, util::Rng rng)
    : directory_(directory), rng_(rng) {}

NodeId RendezvousServer::assign_id() {
  const std::uint64_t n = directory_.space().size();
  if (directory_.size() >= n) {
    throw std::runtime_error("RendezvousServer: ID space exhausted");
  }
  // Rejection-sample a free ID; with the paper's sparse occupancy this
  // terminates almost immediately. A departed node's ID is free again
  // (like an expired lease), so long churn-heavy runs never exhaust N.
  for (;;) {
    const auto candidate = static_cast<NodeId>(rng_.next_below(n));
    if (!directory_.contains(candidate)) return candidate;
  }
}

std::vector<NodeId> RendezvousServer::close_nodes(NodeId target, std::size_t count) const {
  std::vector<NodeId> out;
  if (directory_.empty() || count == 0) return out;
  // Walk outward from the target through the members, both ways
  // wrapping around the ring, and take the closer side each step (a tie
  // goes clockwise). The two walks start on neighboring members and
  // take at most size() members between them, so they never meet: the
  // list holds no repeats.
  const dht::IdSpace& space = directory_.space();
  const std::size_t want = std::min(count, directory_.size());
  out.reserve(want);
  NodeId right = directory_.first_at_or_after(target);
  NodeId left = directory_.last_before(target);
  while (out.size() < want) {
    const std::uint64_t dr = space.distance(target, right);
    const std::uint64_t dl = space.distance(left, target);
    if (dr <= dl) {
      out.push_back(right);
      right = directory_.first_at_or_after(static_cast<NodeId>((right + 1ULL) % space.size()));
    } else {
      out.push_back(left);
      left = directory_.last_before(left);
    }
  }
  return out;
}

}  // namespace continu::overlay
