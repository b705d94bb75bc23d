#include "dht/routing_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dht/member_rank.hpp"

namespace continu::dht {

RoutingExperiment::RoutingExperiment(const IdSpace& space, std::size_t node_count,
                                     util::Rng& rng, double fill_probability)
    : space_(&space), directory_(space) {
  if (node_count == 0 || node_count > space.size()) {
    throw std::invalid_argument("RoutingExperiment: node_count out of range");
  }
  // Sample node_count distinct IDs uniformly from [0, N).
  std::vector<std::size_t> picks = rng.sample_indices(space.size(), node_count);
  ids_.reserve(node_count);
  for (const auto p : picks) {
    ids_.push_back(static_cast<NodeId>(p));
  }
  std::sort(ids_.begin(), ids_.end());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    directory_.insert(ids_[i], static_cast<std::uint32_t>(i));
  }

  // Populate peer tables: per level, a uniformly random member of the
  // level arc (if any); the rank table counts and indexes any arc in O(1).
  const MemberRank rank(space, ids_);
  tables_.reserve(node_count);
  for (const NodeId id : ids_) {
    PeerTable table(*space_, id);
    for (unsigned level = 1; level <= space_->levels(); ++level) {
      if (fill_probability < 1.0 && !rng.next_bool(fill_probability)) continue;
      const auto pick = draw_level_peer(space, rank, id, level, rng);
      if (pick) table.offer(*pick, /*latency_ms=*/1.0, /*now=*/0.0);
    }
    tables_.push_back(std::move(table));
  }
}

const PeerTable& RoutingExperiment::table_of(NodeId id) const {
  const std::uint32_t idx = directory_.index_of(id);
  if (idx == RingDirectory::kNoIndex) {
    throw std::invalid_argument("RoutingExperiment: unknown node id");
  }
  return tables_[idx];
}

RouteResult RoutingExperiment::route(NodeId start, NodeId target) const {
  RouteResult result;
  const auto truth = directory_.owner_of(target);
  if (!truth.has_value()) return result;

  const auto hop_cap = static_cast<std::uint64_t>(std::ceil(space_->hop_upper_bound())) + 2;
  NodeId current = start;
  result.path.push_back(current);
  while (result.hops <= hop_cap) {
    if (current == *truth) {
      result.success = true;
      result.terminal = current;
      return result;
    }
    const auto& table = tables_[directory_.index_of(current)];
    const auto next = table.next_hop(target);
    if (!next.has_value()) {
      // Greedy termination: no populated peer is closer. The walk ends
      // here; it succeeded only if this IS the owner (checked above).
      result.terminal = current;
      return result;
    }
    current = *next;
    result.path.push_back(current);
    ++result.hops;
  }
  // Hop cap exceeded — counts as failure (cannot happen with correct
  // greedy progress; kept as a safety net and asserted in tests).
  result.terminal = current;
  return result;
}

RoutingStats RoutingExperiment::run(std::size_t queries, util::Rng& rng) const {
  RoutingStats stats;
  if (ids_.empty() || queries == 0) return stats;
  std::uint64_t total_hops = 0;
  std::uint64_t successes = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const NodeId start = ids_[rng.next_below(ids_.size())];
    const auto target = static_cast<NodeId>(rng.next_below(space_->size()));
    const RouteResult r = route(start, target);
    total_hops += r.hops;
    stats.max_hops = std::max(stats.max_hops, r.hops);
    if (r.success) ++successes;
  }
  stats.queries = queries;
  stats.average_hops = static_cast<double>(total_hops) / static_cast<double>(queries);
  stats.success_rate = static_cast<double>(successes) / static_cast<double>(queries);
  return stats;
}

}  // namespace continu::dht
