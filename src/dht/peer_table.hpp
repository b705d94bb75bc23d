#pragma once
// Level-structured DHT peer table (the "DHT Peers" third of the paper's
// Peer Table, Figure 2).
//
// Node n keeps up to log N peers, one per level; the level-i slot may
// hold ANY node in [n + 2^(i-1), n + 2^i) — this freedom is what makes
// the DHT "loosely organized". Slots are refreshed opportunistically
// from overheard nodes; an empty slot simply means no suitable node has
// been overheard yet (possible when the ring is sparse).

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/id_space.hpp"
#include "util/types.hpp"

namespace continu::dht {

/// Float-packed (12 bytes; a slot used to cost 32 as
/// std::optional<struct-of-doubles>). With ~log N slots per node this
/// is a first-order term of the per-node DHT budget.
struct DhtPeer {
  NodeId id = kInvalidNode;
  float latency_ms = 0.0f;
  /// Simulated time the entry was last confirmed; stale entries lose
  /// replacement fights. Narrowed SimTime — freshness comparisons run
  /// in float space so same-instant offers still tie.
  float refreshed_at = 0.0f;
};

class PeerTable {
 public:
  PeerTable(const IdSpace& space, NodeId owner);

  [[nodiscard]] NodeId owner() const noexcept { return owner_; }
  [[nodiscard]] unsigned levels() const noexcept;

  /// The peer at `level` (1-based), if any.
  [[nodiscard]] std::optional<DhtPeer> peer_at(unsigned level) const;

  /// All populated peers, ascending by level.
  [[nodiscard]] std::vector<DhtPeer> peers() const;

  /// Offers a candidate (typically an overheard node). It is installed
  /// if its level slot is empty, or refreshes/replaces the incumbent
  /// (newer information wins; on equal freshness lower latency wins).
  /// Returns true if the table changed.
  bool offer(NodeId candidate, double latency_ms, SimTime now);

  /// Drops `node` from whatever slot holds it (failure handling).
  void evict(NodeId node);

  /// Drops every populated peer whose id satisfies `dead`, in place.
  template <typename Pred>
  void evict_if(Pred&& dead) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (occupied(slots_[i]) && dead(slots_[i].id)) clear_slot(i);
    }
  }

  /// Clockwise-closest populated peer to `target` that is strictly
  /// closer (clockwise) than the owner itself — the greedy next hop.
  /// Empty when no peer improves on the owner, i.e. routing terminates.
  ///
  /// O(1) over the occupancy mask. With d the owner's clockwise
  /// distance to the target and L its level (d in [2^(L-1), 2^L)), a
  /// peer at offset o from the owner is d - o from the target when
  /// o <= d, and N + d - o (no improvement) when it overshoots. Every
  /// level above L overshoots and every level below L undershoots, so
  /// the answer is the level-L peer when o <= d, else the highest
  /// occupied level below L. Levels hold disjoint arcs, so no two peers
  /// tie.
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId target) const;

  /// Closest clockwise peer (the lowest populated level); defines the
  /// owner's backup responsibility arc [owner, n1).
  [[nodiscard]] std::optional<NodeId> closest_clockwise_peer() const;

  /// Invariant check: every populated slot's peer lies in its level arc.
  [[nodiscard]] bool invariants_hold() const;

  /// Estimated footprint (slot capacity) — memory sizing.
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return sizeof(*this) + slots_.capacity() * sizeof(DhtPeer);
  }

 private:
  [[nodiscard]] static bool occupied(const DhtPeer& slot) noexcept {
    return slot.id != kInvalidNode;
  }
  void clear_slot(std::size_t index) noexcept {
    slots_[index] = DhtPeer{};
    occupancy_ &= ~(std::uint32_t{1} << index);
  }

  const IdSpace* space_;
  NodeId owner_;
  /// Bit level - 1 is set iff that slot is populated; it sits in the
  /// padding after owner_, so the table is no larger. The constructor
  /// rejects spaces of more than 32 levels (a NodeId has 32 bits).
  std::uint32_t occupancy_ = 0;
  /// index = level - 1; id == kInvalidNode marks an empty slot (leaner
  /// than optional, which pads each 12-byte entry to 16+).
  std::vector<DhtPeer> slots_;
};

}  // namespace continu::dht
