#pragma once
// Standalone DHT routing experiment (paper Figure 3): build a ring of n
// joined nodes inside an ID space of size N, give each node a peer table
// populated the way a real run would (one random suitable node per
// level, when one exists), then measure average greedy-routing hops and
// query success rate over random lookups.
//
// "Success" means the query reaches the true owner (counter-clockwise
// closest node) of the target. Failures happen on sparse rings when a
// node has no populated peer that improves on its own distance yet is
// not the owner itself.

#include <cstdint>
#include <vector>

#include "dht/id_space.hpp"
#include "dht/peer_table.hpp"
#include "dht/ring_directory.hpp"
#include "util/rng.hpp"

namespace continu::dht {

struct RoutingStats {
  double average_hops = 0.0;
  double success_rate = 0.0;
  std::uint64_t max_hops = 0;
  std::uint64_t queries = 0;
};

struct RouteResult {
  bool success = false;
  std::uint64_t hops = 0;
  NodeId terminal = kInvalidNode;
  /// All nodes the message visited (including start and terminal).
  std::vector<NodeId> path;
};

class RoutingExperiment {
 public:
  /// Creates a ring of `node_count` distinct random IDs within `space`.
  /// Each node's peer table gets, per level, a uniformly random member
  /// of that level's arc when at least one exists. `fill_probability`
  /// (default 1) lets tests model partially-filled tables.
  RoutingExperiment(const IdSpace& space, std::size_t node_count, util::Rng& rng,
                    double fill_probability = 1.0);

  /// Routes greedily from `start` toward `target`; hop cap is the
  /// appendix bound rounded up (a correct greedy walk never exceeds it).
  [[nodiscard]] RouteResult route(NodeId start, NodeId target) const;

  /// Runs `queries` random (start, target) lookups.
  [[nodiscard]] RoutingStats run(std::size_t queries, util::Rng& rng) const;

  [[nodiscard]] const RingDirectory& directory() const noexcept { return directory_; }
  [[nodiscard]] const std::vector<NodeId>& node_ids() const noexcept { return ids_; }
  [[nodiscard]] const PeerTable& table_of(NodeId id) const;

 private:
  const IdSpace* space_;
  // Member id -> position in ids_ (and tables_).
  RingDirectory directory_;
  std::vector<NodeId> ids_;
  std::vector<PeerTable> tables_;
};

}  // namespace continu::dht
