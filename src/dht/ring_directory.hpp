#pragma once
// Global view of which IDs are occupied — the simulation's omniscient
// membership record. Protocol code never consults it for routing
// decisions; it exists to (a) resolve an ID to the member holding it,
// (b) let the rendezvous point assign unique IDs at join and list the
// members near a new ID, (c) define ground truth for "the node
// counter-clockwise closest to a target" when verifying routing
// outcomes, and (d) drive handover on graceful leave.
//
// The record is one dense id -> index table over the whole space (4 B
// per ID, kNoIndex where the ID is free) plus a member count. Ring
// walks scan the table from the starting ID, so they cost the gap to
// the next member: short while the space stays sized to the member
// count (see fit_id_space).

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/id_space.hpp"
#include "util/types.hpp"

namespace continu::dht {

class RingDirectory {
 public:
  /// The table's entry for a free ID.
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

  explicit RingDirectory(const IdSpace& space);

  /// Registers `id` as held by the member at `index`. Throws if `id` is
  /// outside the space or already occupied, or `index` is kNoIndex.
  void insert(NodeId id, std::uint32_t index);

  /// Frees an ID (leave/failure). No-op when absent.
  void erase(NodeId id);

  /// Index of the member holding `id`; kNoIndex when the ID is free or
  /// outside the space. One table load.
  [[nodiscard]] std::uint32_t index_of(NodeId id) const noexcept {
    return id < index_.size() ? index_[id] : kNoIndex;
  }
  [[nodiscard]] bool contains(NodeId id) const noexcept { return index_of(id) != kNoIndex; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The node responsible for `target`: counter-clockwise closest member
  /// (a member exactly at `target` owns it). nullopt when empty.
  [[nodiscard]] std::optional<NodeId> owner_of(NodeId target) const;

  /// Clockwise successor of `id` among members, excluding `id` itself.
  [[nodiscard]] std::optional<NodeId> successor_of(NodeId id) const;

  /// Counter-clockwise predecessor of `id` among members, excluding
  /// `id` itself — the handover destination on graceful leave.
  [[nodiscard]] std::optional<NodeId> predecessor_of(NodeId id) const;

  /// The first member at or after `x`, walking clockwise and wrapping.
  /// The directory must not be empty and `x` must be inside the space.
  [[nodiscard]] NodeId first_at_or_after(NodeId x) const;

  /// The last member before `x` (so never `x` unless it is the only
  /// member), walking counter-clockwise and wrapping. The directory
  /// must not be empty and `x` must be inside the space.
  [[nodiscard]] NodeId last_before(NodeId x) const;

  /// All members ascending by ID.
  [[nodiscard]] std::vector<NodeId> members() const;

  [[nodiscard]] const IdSpace& space() const noexcept { return *space_; }

 private:
  const IdSpace* space_;
  std::vector<std::uint32_t> index_;
  std::size_t size_ = 0;
};

}  // namespace continu::dht
