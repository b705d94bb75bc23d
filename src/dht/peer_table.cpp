#include "dht/peer_table.hpp"

#include <stdexcept>

namespace continu::dht {

PeerTable::PeerTable(const IdSpace& space, NodeId owner)
    : space_(&space), owner_(owner), slots_(space.levels()) {
  if (static_cast<std::uint64_t>(owner) >= space.size()) {
    throw std::invalid_argument("PeerTable: owner outside ID space");
  }
  if (space.levels() > 32) {
    throw std::invalid_argument("PeerTable: more than 32 levels");
  }
}

unsigned PeerTable::levels() const noexcept {
  return static_cast<unsigned>(slots_.size());
}

std::optional<DhtPeer> PeerTable::peer_at(unsigned level) const {
  if (level == 0 || level > slots_.size()) return std::nullopt;
  const DhtPeer& slot = slots_[level - 1];
  if (!occupied(slot)) return std::nullopt;
  return slot;
}

std::vector<DhtPeer> PeerTable::peers() const {
  std::vector<DhtPeer> out;
  for (const auto& slot : slots_) {
    if (occupied(slot)) out.push_back(slot);
  }
  return out;
}

bool PeerTable::offer(NodeId candidate, double latency_ms, SimTime now) {
  if (candidate == owner_) return false;
  const unsigned level = space_->level_of(owner_, candidate);
  if (level == 0 || level > slots_.size()) return false;
  DhtPeer& slot = slots_[level - 1];
  const auto lat = static_cast<float>(latency_ms);
  const auto at = static_cast<float>(now);
  if (!occupied(slot)) {
    slot = DhtPeer{candidate, lat, at};
    occupancy_ |= std::uint32_t{1} << (level - 1);
    return true;
  }
  if (slot.id == candidate) {
    slot.latency_ms = lat;
    slot.refreshed_at = at;
    return false;
  }
  // Replacement policy: strictly fresher information wins; at equal
  // freshness prefer the lower-latency peer. This keeps the table
  // converging toward live, nearby peers purely from overhearing.
  // Compared in float space so same-instant offers still tie exactly.
  const bool fresher = at > slot.refreshed_at;
  const bool closer = lat < slot.latency_ms;
  if (fresher || (at == slot.refreshed_at && closer)) {
    slot = DhtPeer{candidate, lat, at};
    return true;
  }
  return false;
}

void PeerTable::evict(NodeId node) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id == node) clear_slot(i);
  }
}

std::optional<NodeId> PeerTable::next_hop(NodeId target) const {
  // Greedy rule from the paper: choose the populated peer clockwise
  // closest to the target, provided it improves on the owner — i.e. its
  // clockwise distance TO the target is strictly smaller than ours.
  // The header explains why one level decides it.
  const std::uint64_t own_dist = space_->distance(owner_, target);
  if (own_dist == 0) return std::nullopt;
  const unsigned level = space_->level_of(owner_, target);
  const std::uint32_t bit = std::uint32_t{1} << (level - 1);
  if ((occupancy_ & bit) != 0) {
    const NodeId peer = slots_[level - 1].id;
    if (space_->distance(owner_, peer) <= own_dist) return peer;
  }
  const std::uint32_t below = occupancy_ & (bit - 1);
  if (below == 0) return std::nullopt;
  return slots_[31 - __builtin_clz(below)].id;
}

std::optional<NodeId> PeerTable::closest_clockwise_peer() const {
  if (occupancy_ == 0) return std::nullopt;
  return slots_[__builtin_ctz(occupancy_)].id;
}

bool PeerTable::invariants_hold() const {
  for (unsigned level = 1; level <= slots_.size(); ++level) {
    const DhtPeer& slot = slots_[level - 1];
    if (!occupied(slot)) continue;
    if (space_->level_of(owner_, slot.id) != level) return false;
  }
  return true;
}

}  // namespace continu::dht
