#include "overlay/rendezvous.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace continu::overlay {

RendezvousServer::RendezvousServer(const dht::IdSpace& space, util::Rng rng)
    : space_(&space), rng_(rng), known_(space), ever_issued_(space) {}

NodeId RendezvousServer::assign_id() {
  if (ever_issued_.size() >= space_->size()) {
    throw std::runtime_error("RendezvousServer: ID space exhausted");
  }
  // Rejection-sample a free ID; with the paper's sparse occupancy this
  // terminates almost immediately, and the directory check makes the
  // uniqueness guarantee absolute.
  for (;;) {
    const auto candidate = static_cast<NodeId>(rng_.next_below(space_->size()));
    if (!ever_issued_.contains(candidate)) {
      ever_issued_.insert(candidate);
      return candidate;
    }
  }
}

void RendezvousServer::register_node(NodeId id) {
  if (known_.contains(id)) return;
  known_.insert(id);
  if (capacity_ != 0 && known_.size() > capacity_) {
    // Partial list: evict a uniformly random entry that is not the one
    // we just added.
    const auto members = known_.members();
    for (;;) {
      const NodeId victim = members[rng_.next_below(members.size())];
      if (victim != id) {
        known_.erase(victim);
        break;
      }
    }
  }
}

void RendezvousServer::report_failure(NodeId id) {
  known_.erase(id);
  // The ID-space position frees up for later joiners (like an expired
  // lease) — without this, long churn-heavy runs would exhaust N.
  ever_issued_.erase(id);
}

std::vector<NodeId> RendezvousServer::close_nodes(NodeId target, std::size_t count) const {
  std::vector<NodeId> out;
  if (known_.empty() || count == 0) return out;
  // Walk outward from the target through the ordered members, both
  // ways wrapping around the ring, and take the closer side each step
  // (a tie goes clockwise). The two walks start on neighboring members
  // and take at most size() members between them, so they never meet:
  // the list holds no repeats.
  const std::size_t want = std::min(count, known_.size());
  out.reserve(want);
  auto right = known_.lower_bound(target);
  if (right == known_.end()) right = known_.begin();
  auto left = std::prev(right == known_.begin() ? known_.end() : right);
  while (out.size() < want) {
    const std::uint64_t dr = space_->distance(target, *right);
    const std::uint64_t dl = space_->distance(*left, target);
    if (dr <= dl) {
      out.push_back(*right);
      if (++right == known_.end()) right = known_.begin();
    } else {
      out.push_back(*left);
      if (left == known_.begin()) left = known_.end();
      --left;
    }
  }
  return out;
}

}  // namespace continu::overlay
