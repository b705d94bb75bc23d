#pragma once
// Rendezvous Point (RP) server — the paper's join bootstrap.
//
// The RP assigns each newcomer a unique ID in the DHT space and hands
// it a short list of existing nodes with nearby IDs. The newcomer PINGs
// those to find the nearest one and copies its Peer Table as a seed.
// The RP's list is the session's membership directory itself, so it
// never names a departed node.

#include <vector>

#include "dht/ring_directory.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace continu::overlay {

class RendezvousServer {
 public:
  /// `directory` is the membership the RP lists and assigns IDs around;
  /// it must outlive the server.
  RendezvousServer(const dht::RingDirectory& directory, util::Rng rng);

  /// Draws an ID uniformly at random until it is one the directory does
  /// not hold. Throws when every ID is held.
  [[nodiscard]] NodeId assign_id();

  /// Up to `count` member ids closest (on the ring) to `target` — the
  /// "short list of several existing nodes which have close IDs" from
  /// the paper.
  [[nodiscard]] std::vector<NodeId> close_nodes(NodeId target, std::size_t count) const;

 private:
  const dht::RingDirectory& directory_;
  util::Rng rng_;
};

}  // namespace continu::overlay
