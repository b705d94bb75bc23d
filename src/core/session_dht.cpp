// Session DHT pre-fetch (Algorithm 2): targets, routed lookups, replies.

#include <algorithm>
#include <cmath>

#include "core/session.hpp"
#include "net/message.hpp"

namespace continu::core {

using net::MessageType;
using net::WireCosts;

Session::PrefetchPlan Session::plan_prefetch(const Node& node,
                                             const ScheduleResult* planned) const {
  PrefetchPlan plan;
  const SimTime now = sim_.now();
  const auto& buffer = node.buffer();
  if (!buffer.started()) return plan;  // no deadlines to protect yet

  // The urgent region starts just past the play point (the "head" of
  // the unplayed buffer in Figure 4's sense).
  const SegmentId head =
      std::max(buffer.play_point(now) + 1, buffer.window_head());
  const SegmentId urgent = node.urgent_line().urgent_id(head);
  // Predicted-missed: white (absent) segments at or below the urgent
  // line that are not already on their way, and actually exist.
  const SegmentId limit = std::min(urgent + 1, emitted_);
  // Predicted-missed segments. For IMMINENT deadlines (within t_fetch
  // of the play point) the pre-fetch channel deliberately RACES any
  // pending gossip request — if gossip wins in time, that is exactly
  // the paper's "repeated data" case and alpha shrinks. Further out,
  // a segment already riding a gossip request is not yet "predicted
  // missed" and is left to the scheduler.
  const SegmentId imminent =
      head + static_cast<SegmentId>(std::ceil(
                 static_cast<double>(config_.playback_rate) * urgent_.t_fetch)) + 1;
  // A segment the SAME round's scheduling plan just booked is not yet
  // in transfer_pending (bookings commit after the plan join), so
  // consult the plan directly — reproducing the serial rule that a
  // freshly booked non-imminent segment is not "predicted missed".
  const auto booked_in_plan = [planned](SegmentId id) {
    if (planned == nullptr) return false;
    for (const auto& assignment : planned->assignments) {
      if (assignment.segment == id) return true;
    }
    return false;
  };
  // Per-thread buffers, reused like the round path's: the window's
  // missing ids, and those of them predicted missed.
  thread_local std::vector<SegmentId> missing;
  thread_local std::vector<SegmentId> missed;
  missing.clear();
  missed.clear();
  buffer.window().missing_in(head, limit, missing);
  for (const SegmentId id : missing) {
    if (node.prefetch_pending(id)) continue;
    if (id >= imminent && (node.transfer_pending(id) || booked_in_plan(id))) {
      continue;
    }
    // Hardening: a segment inside its backoff window is not retried —
    // neither by gossip (plan_scheduling skips it) nor by pre-fetch.
    if (hardened_ && node.retry_blocked(id, now)) continue;
    missed.push_back(id);
  }

  const std::size_t quota = prefetch_quota(missed.size(), config_.prefetch_limit);
  if (quota == 0 && !missed.empty()) plan.suppressed = true;
  // Pre-fetch shares the inbound rate with the scheduler: skip when the
  // downlink is already saturated with scheduled arrivals.
  const double backlog_s = std::max(0.0, node.downlink_free_at() - now);
  if (backlog_s > 0.5 * kSchedulingPeriod) return plan;

  plan.launch.assign(missed.begin(), missed.begin() + quota);
  return plan;
}

void Session::launch_prefetch(std::size_t origin, SegmentId segment) {
  Node& node = *nodes_[origin];
  if (!node.begin_prefetch(segment, sim_.now())) {
    return;
  }
  ++stats_.prefetch_launched;

  std::uint32_t index;
  if (free_prefetch_ops_.empty()) {
    index = static_cast<std::uint32_t>(prefetch_ops_.size());
    prefetch_ops_.emplace_back();
  } else {
    index = free_prefetch_ops_.back();
    free_prefetch_ops_.pop_back();
  }
  PrefetchOp& op = prefetch_ops_[index];
  op = PrefetchOp{};
  op.origin = static_cast<std::uint32_t>(origin);
  op.segment = segment;
  op.pending_replies = config_.backup_replicas;

  // Held across the loop: a lookup whose first send is lost drops its
  // reference at once, which must not free the op under the others.
  const PrefetchRef launch(this, index);
  for (unsigned replica = 1; replica <= config_.backup_replicas; ++replica) {
    const NodeId target = space_.backup_target(segment, replica);
    route_hop(origin, target, origin, launch, 0);
  }
}

void Session::route_hop(std::size_t current, NodeId target, std::size_t origin,
                        PrefetchRef op, unsigned hops) {
  Node& node = *nodes_[current];
  if (hops > hop_cap_) {
    ++stats_.dht_route_failures;
    finish_locate(current, std::move(op));
    return;
  }

  for (;;) {
    const auto next = node.dht_peers().next_hop(target);
    if (!next.has_value()) {
      finish_locate(current, std::move(op));
      return;
    }
    const auto next_index = index_of(*next);
    if (!next_index.has_value()) {
      node.dht_peers().evict(*next);  // stale entry: peer is gone
      continue;
    }
    ++stats_.dht_route_messages;
    // DHT hops are the largest in-flight event population, so the hop
    // is kept to 40 bytes: the op reference (which also carries the
    // Session pointer) plus five 32-bit fields. The reference moves
    // hop to hop, so forwarding never touches the op's count.
    auto hop = [op = std::move(op), target, nidx32 = static_cast<std::uint32_t>(*next_index),
                origin32 = static_cast<std::uint32_t>(origin),
                current32 = static_cast<std::uint32_t>(current), hops]() mutable {
      // Overhearing: the forwarding node learns about the query origin
      // and the previous hop for free.
      Session& self = op.session();
      const std::size_t nidx = nidx32;
      const std::size_t origin = origin32;
      const std::size_t current = current32;
      Node& here = *self.nodes_[nidx];
      const Node& org = *self.nodes_[origin];
      const Node& prev = *self.nodes_[current];
      const SimTime now = self.sim_.now();
      if (org.alive() && org.id() != here.id()) {
        here.overheard().hear(org.id(), self.network_.latency().latency_ms(nidx, origin),
                              now);
      }
      if (prev.alive() && prev.id() != here.id()) {
        here.overheard().hear(prev.id(), self.network_.latency().latency_ms(nidx, current),
                              now);
      }
      self.route_hop(nidx, target, origin, std::move(op), hops + 1);
    };
    static_assert(sizeof(hop) <= 40, "DHT hop capture grew past 40 bytes");
    network_.send(current, *next_index, MessageType::kDhtRoute, WireCosts::kDhtRouteBits,
                  std::move(hop));
    return;
  }
}

void Session::finish_locate(std::size_t terminal, PrefetchRef op) {
  Node& owner = *nodes_[terminal];
  const SegmentId segment = op.op().segment;
  const bool has = owner.backup().has(segment) || owner.buffer().has(segment);
  const double rate = owner.available_sending_rate(sim_.now());
  const std::uint32_t origin = op.op().origin;
  network_.send(terminal, origin, MessageType::kDhtReply, WireCosts::kDhtReplyBits,
                [op = std::move(op), terminal32 = static_cast<std::uint32_t>(terminal),
                 has, rate] {
                  op.session().on_prefetch_reply(op.op(), terminal32, has, rate);
                });
}

void Session::on_prefetch_reply(PrefetchOp& op, std::size_t owner, bool has_segment,
                                double rate) {
  if (has_segment && rate > op.best_rate) {
    op.best_rate = rate;
    op.best_owner = owner;
  }
  if (op.pending_replies == 0) return;  // defensive: already resolved
  if (--op.pending_replies > 0) return;

  const std::size_t origin_index = op.origin;
  const SegmentId segment = op.segment;
  Node& origin = *nodes_[origin_index];
  if (!origin.alive()) return;
  if (!op.best_owner.has_value()) {
    ++stats_.prefetch_no_replica;
    origin.end_prefetch(segment);
    return;
  }
  const std::size_t chosen = *op.best_owner;
  network_.send(origin_index, chosen, MessageType::kPrefetchRequest,
                WireCosts::kPrefetchRequestBits,
                [this, chosen32 = static_cast<std::uint32_t>(chosen),
                 origin32 = static_cast<std::uint32_t>(origin_index), segment] {
                  handle_prefetch_request(chosen32, origin32, segment);
                });
}

void Session::refresh_dht_peers(Node& node) {
  const SimTime now = sim_.now();
  for (const auto& heard : node.overheard().entries()) {
    node.dht_peers().offer(heard.id, heard.latency_ms, now);
  }
  // Evict any DHT peer we know to be dead (cheap liveness sweep).
  node.dht_peers().evict_if(
      [this](NodeId peer) { return !index_of(peer).has_value(); });
}

}  // namespace continu::core
