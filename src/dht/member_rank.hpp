#pragma once
// MemberRank — prefix counts of a member set over the ID space, so a
// clockwise arc's members can be counted and indexed without copying
// them out of the member list.
//
// below(x) is the number of members with an ID less than x, for x in
// [0, N]. The members of the arc [lo, hi) are then the run of the
// ascending member list that starts at index below(lo) and holds
// below(hi) - below(lo) members, wrapping past the list's end when
// lo > hi. Counting an arc and taking its r-th member are O(1); the
// table costs O(N + M) to build and 4 B per ID.

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/id_space.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace continu::dht {

class MemberRank {
 public:
  /// `members` must be ascending, unique and inside the space.
  MemberRank(const IdSpace& space, std::vector<NodeId> members);

  /// Members in the clockwise arc [lo, hi); lo == hi is the empty arc.
  [[nodiscard]] std::uint64_t count(NodeId lo, NodeId hi) const noexcept {
    const std::uint64_t from = below_[lo];
    const std::uint64_t to = below_[hi];
    return lo <= hi ? to - from : members_.size() - from + to;
  }

  /// The r-th member clockwise from lo (r counts from 0 and must be
  /// below the count of an arc that starts at lo).
  [[nodiscard]] NodeId nth(NodeId lo, std::uint64_t r) const noexcept {
    const std::uint64_t i = below_[lo] + r;
    return members_[i < members_.size() ? i : i - members_.size()];
  }

 private:
  std::vector<NodeId> members_;
  std::vector<std::uint32_t> below_;
};

/// Draws `owner`'s initial level-`level` DHT peer: a member uniform over
/// the level arc [owner + 2^(level-1), owner + 2^level), taken with one
/// rng.next_below(count), or nullopt with no draw when the arc holds no
/// member. The owner is never in its own level arcs (its offset is 0),
/// so it can never draw itself.
[[nodiscard]] std::optional<NodeId> draw_level_peer(const IdSpace& space,
                                                    const MemberRank& rank, NodeId owner,
                                                    unsigned level, util::Rng& rng);

}  // namespace continu::dht
