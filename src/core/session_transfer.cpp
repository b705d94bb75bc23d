// Session transfers: pull requests and retries, the fluid model, delivery.

#include <algorithm>

#include "core/session.hpp"
#include "net/message.hpp"
#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"
#include "util/flat_map.hpp"

namespace continu::core {

namespace {

using net::MessageType;
using net::WireCosts;

/// A supplier accepts a transfer only if it completes within this many
/// periods of the request (Algorithm 1's premise is that transfers
/// finish inside the scheduling period; the paper's case 3 — "does not
/// have sufficient available bandwidth" — is a refusal). No standing
/// backlog accumulates across rounds.
constexpr double kServeWithinPeriods = 2.0;
/// Leading request entries a supplier serves in the requester's
/// priority order (deadline-critical); the rest are served randomly.
constexpr std::size_t kUrgentHead = 4;

[[nodiscard]] bool in_time(const Node& node, SegmentId id, SimTime now) {
  const auto& buffer = node.buffer();
  if (!buffer.started()) return true;  // no deadline yet
  if (id < buffer.window_head()) return false;
  return now <= buffer.deadline(id);
}

void store_backup_if_responsible(Node& node, SegmentId id) {
  const auto arc_end = node.dht_peers().closest_clockwise_peer();
  if (!arc_end.has_value()) return;  // no DHT knowledge yet
  node.backup().offer(id, *arc_end);
}

}  // namespace

void Session::on_source_emit() {
  Node& source = *nodes_.front();
  source.buffer().insert(emitted_);
  store_backup_if_responsible(source, emitted_);
  if (config_.scheduler == SchedulerKind::kGridMediaPushPull) {
    push_relay(source, emitted_);
  }
  ++emitted_;
  ++stats_.segments_emitted;
}

void Session::run_scheduling(Node& node, double budget_fraction) {
  // The retry's plan, in a per-thread buffer (a round's plan lives in
  // its RoundPlan).
  thread_local ScheduleResult result;
  std::uint64_t seen = 0;
  const bool planned = plan_scheduling(node, budget_fraction, result, seen);
  stats_.candidates_seen += seen;
  if (!planned) return;
  stats_.candidates_unassigned += result.unassigned;
  stats_.segments_booked += result.assignments.size();
  commit_scheduling(node, result);
}

void Session::commit_scheduling(Node& node, const ScheduleResult& result) {
  const SimTime now = sim_.now();
  // Per-thread buffers, reused like the round path's: the assignments
  // booked, their suppliers in request order, each supplier's id list.
  thread_local std::vector<const Assignment*> booked;
  thread_local util::ReusableFlatSet<NodeId> suppliers;
  thread_local util::FlatMap<NodeId, std::uint32_t> list_of;
  booked.clear();
  suppliers.clear();
  list_of.clear();
  // Book every assignment the node can start, then group them per
  // supplier into one pull request each. Requests go out in the slot
  // order of a FlatMap keyed by supplier and filled in booking order
  // from empty: a pure function of the booked list (unordered_map
  // order depended on libstdc++ bucket internals, and a reused map's
  // order would depend on the capacity earlier calls left it).
  // ReusableFlatSet reproduces that order without allocating.
  for (const auto& assignment : result.assignments) {
    if (!node.begin_transfer(assignment.segment, TransferKind::kScheduled,
                             assignment.supplier, now)) {
      continue;
    }
    booked.push_back(&assignment);
    if (suppliers.insert(assignment.supplier)) {
      list_of[assignment.supplier] = acquire_id_list();
    }
  }
  for (const Assignment* assignment : booked) {
    id_lists_[list_of.at(assignment->supplier)].push_back(assignment->segment);
  }
  for (const NodeId supplier_id : suppliers) {
    IdList request(this, list_of.at(supplier_id));
    const auto supplier_index = index_of(supplier_id);
    if (!supplier_index.has_value()) continue;
    const auto bits = static_cast<Bits>(request.ids().size()) *
                      WireCosts::kSegmentRequestPerIdBits;
    ++stats_.requests_sent;
    const std::size_t requester = node.session_index();
    const std::size_t supplier = *supplier_index;
    network_.send_sharded(
        requester, supplier, MessageType::kSegmentRequest, bits,
        [this, supplier32 = static_cast<std::uint32_t>(supplier),
         requester32 = static_cast<std::uint32_t>(requester),
         request = std::move(request)](net::DeliveryContext& ctx) mutable {
          handle_segment_request(supplier32, requester32, std::move(request), ctx);
        });
  }
}

void Session::handle_segment_request(std::size_t supplier, std::size_t requester,
                                     IdList request, net::DeliveryContext& ctx) {
  // The list goes back to the pool on the serial path: at the join when
  // forked, right away in immediate mode — or it rides on in the nack.
  const auto release = [&ctx](IdList list) { ctx.defer([list = std::move(list)] {}); };
  Node& sup = *nodes_[supplier];
  if (!sup.alive()) {
    release(std::move(request));
    return;
  }
  std::vector<SegmentId>& ids = request.ids();
  SessionStats& stats = delivery_stats(ctx);
  const SimTime now = sim_.now();
  // Obs-owned writes only (counter lane + trace ring of this shard);
  // ctx.shard() is 0 on the serial/immediate path.
  if (obs_counters_ != nullptr) {
    obs_counters_->add(ctx.shard(), ctr_pull_requests_, 1);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.time = now;
    event.kind = obs::TraceEventKind::kPullRequest;
    event.node = static_cast<std::uint32_t>(requester);
    event.peer = static_cast<std::uint32_t>(supplier);
    event.a = ids.size();
    trace_->record(ctx.shard(), event);
  }
  const double horizon = kServeWithinPeriods * kSchedulingPeriod;
  const double service_time = 1.0 / std::max(sup.outbound_rate(), 0.01);
  // Keep the urgent head of the request in priority order (the
  // requester ranked deadline-critical segments first), but serve the
  // elastic tail in RANDOM order: if every supplier served each
  // identically-ordered request front-to-back, all requesters would end
  // up with the same segments and gossip exchange would die out.
  //
  // The shuffle draws from a per-request stream keyed on (instant,
  // supplier, requester) — a handler running on a worker shard may not
  // touch the shared session RNG, and the derived stream makes the
  // serve order a pure function of the delivery schedule at every
  // thread count (the parallel engine's standard per-tick RNG recipe).
  if (ids.size() > kUrgentHead) {
    util::Rng request_rng = util::Rng::for_tick(
        config_.seed, now,
        (static_cast<std::uint64_t>(supplier) << 32) |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(requester)));
    request_rng.shuffle(ids.data() + kUrgentHead, ids.size() - kUrgentHead);
  }
  // Per-id grant/refuse trace events share every field but kind and the
  // segment id; building the template once keeps the per-segment cost
  // of an enabled trace to a kind/id store and a ring push.
  obs::TraceSink* const trace = trace_.get();
  obs::TraceEvent serve_event;
  if (trace != nullptr) {
    serve_event.time = now;
    serve_event.node = static_cast<std::uint32_t>(requester);
    serve_event.peer = static_cast<std::uint32_t>(supplier);
  }
  // Refused ids are compacted to the front of the list, which then
  // travels in the nack.
  std::size_t refused = 0;
  for (const SegmentId id : ids) {
    // Accept only transfers that complete within the service horizon of
    // this request — the supplier keeps no standing backlog.
    const bool overloaded =
        std::max(sup.uplink_free_at(), now) + service_time - now > horizon;
    const bool gone = !sup.buffer().has(id) && !sup.backup().has(id);
    if (overloaded || gone) {
      // The paper's case 3 (no available bandwidth) or an eviction race:
      // refuse explicitly so the requester can reschedule immediately
      // instead of waiting out a timeout.
      ++stats.segments_refused;
      ids[refused++] = id;
      if (trace != nullptr) {
        serve_event.kind = obs::TraceEventKind::kPullRefused;
        serve_event.a = id;
        trace->record(ctx.shard(), serve_event);
      }
      continue;
    }
    if (trace != nullptr) {
      serve_event.kind = obs::TraceEventKind::kPullGrant;
      serve_event.a = id;
      trace->record(ctx.shard(), serve_event);
    }
    start_fluid_transfer(supplier, requester, id, MessageType::kSegmentData,
                         TransferKind::kScheduled, &ctx);
  }
  if (refused == 0) {
    release(std::move(request));
    return;
  }
  ids.resize(refused);
  // The nack send mutates shared engine state (traffic account, event
  // queue), so it rides the context: inline in immediate mode, settled
  // at the join when forked.
  ctx.defer([this, supplier = static_cast<std::uint32_t>(supplier),
             requester = static_cast<std::uint32_t>(requester), supplier_id = sup.id(),
             refused_ids = std::move(request)]() mutable {
    network_.send_sharded(
        supplier, requester, MessageType::kRequestNack, WireCosts::kSmallPacketBits,
        [this, requester, supplier_id,
         refused_ids = std::move(refused_ids)](net::DeliveryContext& nack_ctx) mutable {
          // A refusal frees the in-flight slots for the next round and
          // mildly decays the supplier's estimate so chronic saturation
          // steers bookings elsewhere. (Immediate rescheduling would
          // retry the same saturated supplier in a tight loop.)
          // Requester-own writes only — shard-safe.
          Node& req = *nodes_[requester];
          if (req.alive()) {
            for (const SegmentId id : refused_ids.ids()) req.end_transfer(id);
            req.rates().on_transfer_refused(supplier_id);
          }
          nack_ctx.defer([list = std::move(refused_ids)] {});
        });
  });
}

void Session::start_fluid_transfer(std::size_t supplier, std::size_t requester,
                                   SegmentId id, net::MessageType type,
                                   TransferKind kind, net::DeliveryContext* ctx) {
  Node& sup = *nodes_[supplier];
  const SimTime now = sim_.now();

  // Tandem-queue fluid model. Stage 1: the supplier's uplink serializes
  // departures at its outbound rate. Stage 2 (at arrival time): the
  // receiver's downlink serializes deliveries at its inbound rate. The
  // two queues pipeline — a wait at the uplink does not occupy the
  // receiver's downlink.
  //
  // The uplink booking happens HERE, inside the (possibly forked)
  // request handler — supplier-own state, and later segments of the
  // same request must see earlier bookings for the admission horizon
  // to mean anything. Only the wire send defers.
  const double up_rate = std::max(sup.outbound_rate(), 0.01);
  const SimTime departure = std::max(now, sup.uplink_free_at()) + 1.0 / up_rate;
  sup.set_uplink_free_at(departure);

  const NodeId supplier_id = sup.id();
  const double bottleneck =
      std::max(1.0 / up_rate, 1.0 / std::max(nodes_[requester]->inbound_rate(), 0.01));
  const SimTime uplink_wait = departure - now;
  const auto send_stage2 = [this, supplier = static_cast<std::uint32_t>(supplier),
                            requester = static_cast<std::uint32_t>(requester), id,
                            kind, supplier_id, bottleneck, type, uplink_wait] {
    network_.send_sharded(
        supplier, requester, type, WireCosts::kSegmentBits,
        [this, requester, id, kind, supplier_id,
         bottleneck](net::DeliveryContext& delivery_ctx) {
          // Stage 2: queue on the receiver's downlink. Receiver-own
          // writes only; same-bucket arrivals for one receiver chain
          // through downlink_free_at in schedule order — the shard
          // groups by receiver precisely so this serialization holds.
          Node& req = *nodes_[requester];
          if (!req.alive()) return;
          const SimTime arrival = sim_.now();
          const double down_rate = std::max(req.inbound_rate(), 0.01);
          const SimTime done =
              std::max(arrival, req.downlink_free_at()) + 1.0 / down_rate;
          req.set_downlink_free_at(done);
          // Stage 3 forks too: the completion is a sharded
          // continuation on the same receiver (an exact schedule_at in
          // continuous mode, the grid bucket at ceil(done) when
          // quantized).
          delivery_ctx.forward(
              requester, done,
              [this, requester, id, kind, supplier_id,
               bottleneck](net::DeliveryContext& done_ctx) {
                deliver_segment(requester, id, kind, supplier_id, bottleneck,
                                done_ctx);
              });
        },
        /*extra_delay=*/uplink_wait);
  };
  if (ctx != nullptr) {
    ctx->defer(send_stage2);
  } else {
    send_stage2();
  }
}

void Session::deliver_segment(std::size_t receiver, SegmentId id, TransferKind kind,
                              NodeId supplier, double transfer_duration,
                              net::DeliveryContext& ctx) {
  Node& node = *nodes_[receiver];
  if (!node.alive()) return;
  SessionStats& stats = delivery_stats(ctx);
  const SimTime now = sim_.now();

  const auto record = (kind == TransferKind::kScheduled)
                          ? node.end_transfer(id)
                          : std::optional<InflightTransfer>{};
  if (kind == TransferKind::kPrefetch) node.end_prefetch(id);
  const bool fresh = node.buffer().insert(id);
  ++stats.segments_delivered;
  if (!fresh) ++stats.duplicate_deliveries;
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.time = now;
    event.kind = obs::TraceEventKind::kSegmentDelivery;
    event.node = static_cast<std::uint32_t>(receiver);
    event.a = id;
    event.b = supplier;  // NodeId, not a session index
    trace_->record(ctx.shard(), event);
  }

  // Hardening: a completed delivery clears the segment's retry streak
  // and wipes the supplier's strike record. Receiver-own writes only,
  // so this is safe inside a forked receiver shard.
  if (hardened_) {
    node.clear_retry(id);
    node.note_supplier_success(supplier);
  }

  // The push relay reads OTHER nodes' buffers and draws from the
  // shared session RNG, so it always runs serially: inline in
  // immediate mode, at the join (shard order) when forked. The alive
  // re-check is for the deferred case.
  const auto relay_via_ctx = [this, &ctx, receiver, id] {
    ctx.defer([this, receiver, id] {
      Node& relay_node = *nodes_[receiver];
      if (relay_node.alive()) push_relay(relay_node, id);
    });
  };

  if (kind == TransferKind::kPushed) {
    // Unsolicited relay: credit the supplier's supply score (it spent
    // uplink on us) but take no R_ij sample — we never requested it.
    node.neighbors().record_supply_event(supplier);
    store_backup_if_responsible(node, id);
    if (fresh && config_.scheduler == SchedulerKind::kGridMediaPushPull) {
      relay_via_ctx();
    }
    return;
  }

  if (kind == TransferKind::kScheduled) {
    // The receiver measures the connection's throughput over the
    // transfer itself (bytes/time while receiving) — propagation
    // latency does not dilute the R_ij estimate.
    (void)record;
    node.rates().on_transfer_complete(supplier, transfer_duration);
    node.neighbors().record_supply_event(supplier);
    // Repeated data (alpha case 2): gossip delivered a segment that
    // pre-fetch had already fetched, and in time.
    if (!fresh && node.prefetch_tagged(id) && in_time(node, id, now)) {
      node.urgent_line().on_repeated_prefetch();
    }
  } else {
    ++stats.prefetch_succeeded;
    node.tag_prefetched(id);
    if (fresh) {
      // Overdue data (alpha case 1): the pre-fetch landed too late.
      if (!in_time(node, id, now)) {
        node.urgent_line().on_overdue_prefetch();
      }
    } else if (in_time(node, id, now)) {
      // Gossip beat the pre-fetch and the deadline: repeated data.
      node.urgent_line().on_repeated_prefetch();
    }
  }

  store_backup_if_responsible(node, id);

  // GridMedia-style relay: "a pushing packet is relayed by a neighbor
  // as soon as it is received". Duplicates die out at receivers that
  // already hold the segment.
  if (fresh && config_.scheduler == SchedulerKind::kGridMediaPushPull) {
    relay_via_ctx();
  }
}

void Session::push_relay(Node& node, SegmentId id) {
  // Relay to partners that (per their current buffer map) lack the
  // segment. The source seeds with the full fan-out; relays forward to
  // one partner each — an unthrottled fan-out cascade floods every
  // uplink with duplicates (exactly the overhead the paper criticizes
  // GridMedia for), starving the pull plane. Respect the uplink
  // admission horizon so pushes cannot monopolize a saturated uplink.
  const std::size_t fanout =
      node.is_source() ? kPushFanout + 2 : std::size_t{1};
  auto partners = node.neighbors().ids();
  rng_.shuffle(partners);
  std::size_t pushed = 0;
  for (const NodeId partner : partners) {
    if (pushed >= fanout) break;
    const auto pidx = index_of(partner);
    if (!pidx.has_value()) continue;
    Node& peer = *nodes_[*pidx];
    if (peer.buffer().has(id)) continue;
    const double horizon = kServeWithinPeriods * kSchedulingPeriod;
    const double service = 1.0 / std::max(node.outbound_rate(), 0.01);
    if (std::max(node.uplink_free_at(), sim_.now()) + service - sim_.now() > horizon) {
      break;  // uplink saturated: pulls take precedence
    }
    start_fluid_transfer(node.session_index(), *pidx, id, MessageType::kSegmentData,
                         TransferKind::kPushed);
    ++stats_.segments_pushed;
    ++pushed;
  }
}

void Session::handle_prefetch_request(std::size_t owner, std::size_t origin,
                                      SegmentId segment) {
  Node& node = *nodes_[owner];
  if (!node.alive()) return;
  if (!node.backup().has(segment) && !node.buffer().has(segment)) return;
  // Pre-fetch transfers are deadline-critical: the origin picked this
  // owner for its available sending rate, so serve unless the uplink is
  // severely backed up (then the origin's timeout recovers).
  if (node.uplink_free_at() - sim_.now() >
      2.0 * kServeWithinPeriods * kSchedulingPeriod) {
    return;
  }
  start_fluid_transfer(owner, origin, segment, MessageType::kPrefetchData,
                       TransferKind::kPrefetch);
}

}  // namespace continu::core
