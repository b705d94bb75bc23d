#pragma once
// Global view of which IDs are occupied — the simulation's omniscient
// directory. Protocol code never consults it for routing decisions; it
// exists to (a) assign unique IDs at join, (b) define ground truth for
// "the node counter-clockwise closest to a target" when verifying
// routing outcomes, and (c) drive handover on graceful leave.

#include <optional>
#include <set>
#include <vector>

#include "dht/id_space.hpp"
#include "util/types.hpp"

namespace continu::dht {

class RingDirectory {
 public:
  explicit RingDirectory(const IdSpace& space);

  /// Registers an occupied ID. Throws if already occupied.
  void insert(NodeId id);

  /// Removes an ID (leave/failure). No-op when absent.
  void erase(NodeId id);

  [[nodiscard]] bool contains(NodeId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  /// The node responsible for `target`: counter-clockwise closest member
  /// (a member exactly at `target` owns it). nullopt when empty.
  [[nodiscard]] std::optional<NodeId> owner_of(NodeId target) const;

  /// Clockwise successor of `id` among members, excluding `id` itself.
  [[nodiscard]] std::optional<NodeId> successor_of(NodeId id) const;

  /// Counter-clockwise predecessor of `id` among members, excluding
  /// `id` itself — the handover destination on graceful leave.
  [[nodiscard]] std::optional<NodeId> predecessor_of(NodeId id) const;

  /// All members ascending by ID.
  [[nodiscard]] std::vector<NodeId> members() const;

  /// The members in place, ascending by ID, for walks that need not
  /// copy them.
  using const_iterator = std::set<NodeId>::const_iterator;
  [[nodiscard]] const_iterator begin() const noexcept { return members_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return members_.end(); }
  /// First member >= id, or end().
  [[nodiscard]] const_iterator lower_bound(NodeId id) const {
    return members_.lower_bound(id);
  }

  [[nodiscard]] const IdSpace& space() const noexcept { return *space_; }

 private:
  const IdSpace* space_;
  std::set<NodeId> members_;
};

}  // namespace continu::dht
