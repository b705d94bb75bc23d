#pragma once
// Rendezvous Point (RP) server — the paper's join bootstrap.
//
// The RP holds a partial list of joined nodes, assigns each newcomer a
// unique ID in the DHT space, and hands it a short list of existing
// nodes with nearby IDs. The newcomer PINGs those to find the nearest
// alive one, copies its Peer Table as a seed, and reports dead entries
// back to the RP.

#include <optional>
#include <vector>

#include "dht/id_space.hpp"
#include "dht/ring_directory.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace continu::overlay {

class RendezvousServer {
 public:
  RendezvousServer(const dht::IdSpace& space, util::Rng rng);

  /// Allocates a fresh, currently-unused ID uniformly at random.
  /// Throws when the ID space is exhausted.
  [[nodiscard]] NodeId assign_id();

  /// Registers a successfully joined node (RP keeps only a partial
  /// list; we cap it and evict uniformly to model that).
  void register_node(NodeId id);

  /// Removes a node reported dead (or leaving).
  void report_failure(NodeId id);

  /// Up to `count` known node ids with IDs closest (on the ring) to
  /// `target` — the "short list of several existing nodes which have
  /// close IDs" from the paper.
  [[nodiscard]] std::vector<NodeId> close_nodes(NodeId target, std::size_t count) const;

  [[nodiscard]] std::size_t known_count() const noexcept { return known_.size(); }
  [[nodiscard]] bool knows(NodeId id) const { return known_.contains(id); }

  /// Partial-list capacity (0 = unlimited, default: unlimited; the
  /// simulator typically caps at a few hundred for large overlays).
  void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }

 private:
  const dht::IdSpace* space_;
  util::Rng rng_;
  dht::RingDirectory known_;           // nodes the RP currently lists
  util::FlatSet<NodeId> ever_issued_;  // IDs assigned and not yet freed
  std::size_t capacity_ = 0;
};

}  // namespace continu::overlay
