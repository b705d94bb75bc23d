// Session membership: partnerships and repair, churn, crashes and joins.

#include <algorithm>
#include <cmath>

#include "core/session.hpp"
#include "net/message.hpp"

namespace continu::core {

namespace {

using net::MessageType;
using net::WireCosts;

/// How many RP-listed close nodes a joiner probes.
constexpr std::size_t kJoinProbeCount = 4;

}  // namespace

void Session::link_partners(Node& a, Node& b, double latency_ms, SimTime now) {
  // Partnerships are the undirected overlay edges: install both
  // directions (TCP connections serve data exchange both ways).
  a.neighbors().add(b.id(), latency_ms, now);
  b.neighbors().add(a.id(), latency_ms, now);
}

std::vector<std::size_t> Session::alive_peers() const {
  std::vector<std::size_t> alive;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {  // the source never leaves
    if (nodes_[i]->alive()) alive.push_back(i);
  }
  return alive;
}

void Session::repair_neighbors(Node& node) {
  const SimTime now = sim_.now();

  // Drop dead neighbors, in place: remove() keeps the order of the rest.
  const std::vector<overlay::Neighbor>& neighbors = node.neighbors().all();
  for (std::size_t i = 0; i < neighbors.size();) {
    const NodeId id = neighbors[i].id;
    if (index_of(id).has_value()) {
      ++i;
      continue;
    }
    node.neighbors().remove(id);
    node.rates().forget(id);
    node.overheard().forget(id);
  }

  // Ids a replacement may not be (a per-thread buffer, reused).
  thread_local std::vector<NodeId> excluded;
  excluded.clear();
  for (const overlay::Neighbor& neighbor : neighbors) excluded.push_back(neighbor.id);
  excluded.push_back(node.id());

  // Refill toward M initiated links from the lowest-latency overheard
  // candidates; the new partnership is reciprocal.
  while (node.neighbors().size() < config_.connected_neighbors) {
    const auto candidate = node.overheard().best_candidate(excluded);
    if (!candidate.has_value()) break;
    const auto cidx = index_of(candidate->id);
    if (!cidx.has_value()) {
      node.overheard().forget(candidate->id);
      continue;
    }
    link_partners(node, *nodes_[*cidx], candidate->latency_ms, now);
    excluded.push_back(candidate->id);
    ++stats_.neighbor_replacements;
  }

  // Replace at most one low-supply neighbor per round, and only when
  // this node is actually struggling (missed a deadline in the current
  // round) — a healthy node keeps its partnerships stable instead of
  // thrashing the mesh. Reciprocal add; the dropped side notices the
  // asymmetry and repairs independently.
  const bool struggling = node.round_stats().missed > 0;
  if (struggling && node.neighbors().size() >= config_.connected_neighbors) {
    const auto weakest = node.neighbors().weakest(now, kNeighborMinAge);
    if (weakest.has_value() && weakest->supply_rate < kLowSupplyThreshold) {
      const auto candidate = node.overheard().best_candidate(excluded);
      if (candidate.has_value()) {
        const auto cidx = index_of(candidate->id);
        if (cidx.has_value()) {
          node.neighbors().remove(weakest->id);
          node.rates().forget(weakest->id);
          link_partners(node, *nodes_[*cidx], candidate->latency_ms, now);
          ++stats_.neighbor_replacements;
        }
      }
    }
  }
}

void Session::on_churn_tick() {
  const overlay::ChurnBatch batch = churn_.plan(alive_peers());

  std::vector<NodeId> dead_ids;
  for (const auto index : batch.graceful_leavers) {
    dead_ids.push_back(nodes_[index]->id());
    kill_node(index, /*graceful=*/true);
  }
  for (const auto index : batch.abrupt_leavers) {
    dead_ids.push_back(nodes_[index]->id());
    kill_node(index, /*graceful=*/false);
  }

  drop_transfers_from_dead(dead_ids);

  for (std::size_t j = 0; j < batch.joins; ++j) {
    do_join();
  }
}

void Session::drop_transfers_from_dead(const std::vector<NodeId>& dead_ids) {
  // Abandon in-flight transfers sourced from the departed. The sweep is
  // per-receiver-node independent (each node mutates only its own
  // in-flight table), so it shards across the executor — the serial
  // mass of a churn tick at 8000 nodes is this O(N) scan. Each node
  // makes one pass over its table against the ids sorted once here.
  if (dead_ids.empty()) return;
  std::vector<NodeId> sorted_dead = dead_ids;
  std::sort(sorted_dead.begin(), sorted_dead.end());
  exec_.for_shards(obs::Phase::kChurnSweep, nodes_.size(), kSweepGrain,
                   [this, &dead_ids, &sorted_dead](std::size_t, std::size_t begin,
                                                   std::size_t end) {
                     // Per-thread buffers: the dead suppliers one node's
                     // table names, the ids of one supplier's entries.
                     thread_local std::vector<NodeId> dead_hit;
                     thread_local std::vector<SegmentId> dropped;
                     for (std::size_t i = begin; i < end; ++i) {
                       Node& node = *nodes_[i];
                       if (!node.alive()) continue;
                       node.drop_transfers_from_any(dead_ids, sorted_dead,
                                                    dead_hit, dropped);
                     }
                   });
}

void Session::on_fault_crash(double fraction) {
  // Crash-stop: victims vanish mid-protocol with no graceful handoff —
  // the abrupt-leave path of the churn machinery, driven by the fault
  // plan instead of the churn process. Victim selection draws from a
  // dedicated per-tick stream so a crash event never perturbs the
  // churn or scheduling RNG sequences.
  std::vector<std::size_t> alive = alive_peers();
  if (alive.empty()) return;
  std::size_t count = static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(alive.size())));
  if (count == 0) count = 1;  // a scheduled crash always claims someone
  count = std::min(count, alive.size());

  constexpr std::uint64_t kCrashStream = 0x4352415348ull;  // "CRASH"
  util::Rng rng = util::Rng::for_tick(config_.seed ^ kCrashStream, sim_.now(),
                                      alive.size());
  rng.shuffle(alive);

  std::vector<NodeId> dead_ids;
  dead_ids.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    dead_ids.push_back(nodes_[alive[v]]->id());
    kill_node(alive[v], /*graceful=*/false);
    ++stats_.fault_crashes;
  }
  drop_transfers_from_dead(dead_ids);
}

void Session::kill_node(std::size_t index, bool graceful) {
  Node& node = *nodes_[index];
  if (!node.alive() || node.is_source()) return;

  if (graceful) {
    ++stats_.graceful_leaves;
    // Hand the VoD backup to the counter-clockwise closest alive node.
    const auto heir_id = directory_.predecessor_of(node.id());
    if (heir_id.has_value()) {
      const auto heir_index = index_of(*heir_id);
      if (heir_index.has_value()) {
        auto contents = node.backup().take_all();
        const auto bits = WireCosts::kSmallPacketBits +
                          static_cast<Bits>(contents.size()) * WireCosts::kSegmentBits;
        Node& heir = *nodes_[*heir_index];
        network_.send(index, *heir_index, MessageType::kHandover, bits,
                      [&heir, contents = std::move(contents)] {
                        for (const SegmentId id : contents) heir.backup().store(id);
                      });
      }
    }
  } else {
    ++stats_.abrupt_leaves;
  }

  node.set_alive(false);
  directory_.erase(node.id());
  rounds_.remove(round_handles_[index]);
}

void Session::do_join() {
  NodeId id;
  try {
    id = rp_.assign_id();
  } catch (const std::exception&) {
    return;  // ID space exhausted; skip this join
  }
  const double ping = sample_ping();
  const std::size_t index = network_.latency().add_node(ping);
  auto node = std::make_unique<Node>(
      id, index, config_, urgent_, space_,
      sample_rate(kInboundMin, kInboundMax, /*skewed=*/true),
      sample_rate(kOutboundMin, kOutboundMax, /*skewed=*/false),
      ping);
  const SimTime now = sim_.now();
  ++stats_.joins;

  // RP bootstrap: probe the closest listed nodes (the list is the
  // alive set), pick the nearest as the Peer Table base.
  const auto close = rp_.close_nodes(id, kJoinProbeCount);
  std::optional<std::size_t> base;
  double base_latency = 0.0;
  for (const NodeId candidate : close) {
    const std::size_t cidx = index_of(candidate).value();
    // PING + PONG.
    network_.charge_only(MessageType::kPing, WireCosts::kSmallPacketBits);
    network_.charge_only(MessageType::kPong, WireCosts::kSmallPacketBits);
    const double lat = network_.latency().latency_ms(index, cidx);
    if (!base.has_value() || lat < base_latency) {
      base = cidx;
      base_latency = lat;
    }
  }

  if (base.has_value()) {
    const Node& base_node = *nodes_[*base];
    // Seed overheard from the base's Peer Table and its partners.
    node->overheard().hear(base_node.id(), base_latency, now);
    const auto overhear = [&](NodeId peer) {
      const auto pidx = index_of(peer);
      if (!pidx.has_value() || peer == id) return;
      node->overheard().hear(peer, network_.latency().latency_ms(index, *pidx), now);
    };
    for (const auto& entry : base_node.overheard().entries()) overhear(entry.id);
    for (const NodeId nb : base_node.neighbors().ids()) overhear(nb);
    // Seed DHT peers from the base's table (levels recompute for the
    // new owner inside offer()).
    for (const auto& peer : base_node.dht_peers().peers()) {
      node->dht_peers().offer(peer.id, peer.latency_ms, now);
    }
    node->dht_peers().offer(base_node.id(), base_latency, now);

    // Connect to up to M lowest-latency alive candidates (reciprocal).
    std::vector<NodeId> excluded{id};
    while (node->neighbors().size() < config_.connected_neighbors) {
      const auto candidate = node->overheard().best_candidate(excluded);
      if (!candidate.has_value()) break;
      excluded.push_back(candidate->id);
      const auto cidx = index_of(candidate->id);
      if (!cidx.has_value()) continue;
      link_partners(*node, *nodes_[*cidx], candidate->latency_ms, now);
      network_.charge_only(MessageType::kJoinNotify, WireCosts::kSmallPacketBits);
    }
  }

  directory_.insert(id, static_cast<std::uint32_t>(index));
  nodes_.push_back(std::move(node));

  round_handles_.push_back(rounds_.add_at(round_phase(rng_), index));
}

}  // namespace continu::core
