#include "dht/member_rank.hpp"

#include <stdexcept>
#include <utility>

namespace continu::dht {

MemberRank::MemberRank(const IdSpace& space, std::vector<NodeId> members)
    : members_(std::move(members)), below_(space.size() + 1, 0) {
  std::uint64_t next = 0;  // index of the first member >= x
  for (std::uint64_t x = 0; x <= space.size(); ++x) {
    while (next < members_.size() && members_[next] < x) ++next;
    below_[x] = static_cast<std::uint32_t>(next);
  }
  if (next != members_.size()) {
    throw std::invalid_argument("MemberRank: member outside the ID space");
  }
}

std::optional<NodeId> draw_level_peer(const IdSpace& space, const MemberRank& rank,
                                      NodeId owner, unsigned level, util::Rng& rng) {
  const auto [lo, hi] = space.level_arc(owner, level);
  const std::uint64_t count = rank.count(lo, hi);
  if (count == 0) return std::nullopt;
  return rank.nth(lo, rng.next_below(count));
}

}  // namespace continu::dht
