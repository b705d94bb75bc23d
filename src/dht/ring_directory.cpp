#include "dht/ring_directory.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace continu::dht {

namespace {
constexpr auto held = [](std::uint32_t slot) { return slot != RingDirectory::kNoIndex; };
}

RingDirectory::RingDirectory(const IdSpace& space)
    : space_(&space), index_(space.size(), kNoIndex) {}

void RingDirectory::insert(NodeId id, std::uint32_t index) {
  if (id >= index_.size()) {
    throw std::invalid_argument("RingDirectory: id outside ID space");
  }
  if (index_[id] != kNoIndex) {
    throw std::invalid_argument("RingDirectory: id already occupied");
  }
  if (index == kNoIndex) {
    throw std::invalid_argument("RingDirectory: index is the free marker");
  }
  index_[id] = index;
  ++size_;
}

void RingDirectory::erase(NodeId id) {
  if (!contains(id)) return;
  index_[id] = kNoIndex;
  --size_;
}

NodeId RingDirectory::first_at_or_after(NodeId x) const {
  assert(size_ != 0 && x < index_.size());
  auto it = std::find_if(index_.begin() + x, index_.end(), held);
  if (it == index_.end()) it = std::find_if(index_.begin(), index_.end(), held);
  return static_cast<NodeId>(it - index_.begin());
}

NodeId RingDirectory::last_before(NodeId x) const {
  assert(size_ != 0 && x < index_.size());
  // Reverse iterators: rbegin() + (N - x) points at x - 1.
  auto it = std::find_if(index_.rbegin() + (index_.size() - x), index_.rend(), held);
  if (it == index_.rend()) it = std::find_if(index_.rbegin(), index_.rend(), held);
  return static_cast<NodeId>(index_.rend() - it - 1);
}

std::optional<NodeId> RingDirectory::owner_of(NodeId target) const {
  if (empty()) return std::nullopt;
  // The last member at or before target: the last one before target + 1.
  const auto next = static_cast<NodeId>((target + 1ULL) % index_.size());
  return last_before(next);
}

std::optional<NodeId> RingDirectory::successor_of(NodeId id) const {
  if (empty()) return std::nullopt;
  const NodeId next = first_at_or_after(static_cast<NodeId>((id + 1ULL) % index_.size()));
  if (next == id) return std::nullopt;
  return next;
}

std::optional<NodeId> RingDirectory::predecessor_of(NodeId id) const {
  if (empty()) return std::nullopt;
  const NodeId prev = last_before(id);
  if (prev == id) return std::nullopt;
  return prev;
}

std::vector<NodeId> RingDirectory::members() const {
  std::vector<NodeId> out;
  out.reserve(size_);
  for (std::size_t id = 0; id < index_.size(); ++id) {
    if (held(index_[id])) out.push_back(static_cast<NodeId>(id));
  }
  return out;
}

}  // namespace continu::dht
