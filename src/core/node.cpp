#include "core/node.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace continu::core {

Node::Node(NodeId id, std::size_t session_index, const SystemConfig& config,
           const UrgentLineConfig& urgent, const dht::IdSpace& space,
           double inbound_rate, double outbound_rate, double ping_ms)
    : id_(id),
      session_index_(session_index),
      ping_ms_(ping_ms),
      inbound_rate_(inbound_rate),
      outbound_rate_(outbound_rate),
      buffer_(kBufferCapacity, config.playback_rate, kStallPatience),
      // Partnerships are bidirectional TCP connections over the overlay's
      // undirected edges: a node initiates M but also accepts incoming
      // links, so the set is sized with headroom (degree ~ M on average,
      // bounded by 2M).
      neighbors_(2 * config.connected_neighbors),
      dht_peers_(space, id),
      overheard_(kOverheardCapacity),
      backup_(space, id, config.backup_replicas),
      rates_(/*initial_rate=*/static_cast<double>(config.playback_rate)),
      urgent_line_(urgent) {}

double Node::available_sending_rate(SimTime now) const noexcept {
  const double backlog_s = std::max(0.0, uplink_free_at_ - now);
  return outbound_rate_ / (1.0 + backlog_s);
}

std::uint32_t Node::seg_key(SegmentId id) noexcept {
  assert(id >= 0 && id <= static_cast<SegmentId>(0xffffffffu));
  return static_cast<std::uint32_t>(id);
}

bool Node::begin_transfer(SegmentId id, TransferKind kind, NodeId supplier, SimTime now) {
  const auto [it, inserted] = inflight_.try_emplace(
      seg_key(id),
      detail::PackedTransfer{static_cast<float>(now), supplier, kind});
  (void)it;
  return inserted;
}

std::optional<InflightTransfer> Node::end_transfer(SegmentId id) {
  const auto it = inflight_.find(seg_key(id));
  if (it == inflight_.end()) return std::nullopt;
  const InflightTransfer record{it->second.kind, it->second.supplier,
                                static_cast<SimTime>(it->second.requested_at)};
  inflight_.erase(it);
  return record;
}

bool Node::transfer_pending(SegmentId id) const {
  return inflight_.contains(seg_key(id));
}

bool Node::begin_prefetch(SegmentId id, SimTime now) {
  return prefetch_pending_.try_emplace(seg_key(id), static_cast<float>(now)).second;
}

void Node::end_prefetch(SegmentId id) { prefetch_pending_.erase(seg_key(id)); }

bool Node::prefetch_pending(SegmentId id) const {
  return prefetch_pending_.contains(seg_key(id));
}

bool Node::prefetch_tagged(SegmentId id) const {
  return prefetch_tags_.contains(seg_key(id));
}

void Node::tag_prefetched(SegmentId id) { prefetch_tags_.insert(seg_key(id)); }

void Node::expire_tags(SegmentId horizon) {
  // Safe under the FlatSet erase-during-iteration contract: the
  // predicate is idempotent, so a wrap-displaced revisit is harmless.
  const std::uint32_t bound =
      horizon <= 0 ? 0u : seg_key(horizon);
  for (auto it = prefetch_tags_.begin(); it != prefetch_tags_.end();) {
    if (*it < bound) {
      it = prefetch_tags_.erase(it);
    } else {
      ++it;
    }
  }
}

void Node::drop_transfers_from(NodeId supplier, std::vector<SegmentId>& dropped) {
  dropped.clear();
  for (const auto& [key, record] : inflight_) {
    if (record.supplier == supplier) dropped.push_back(static_cast<SegmentId>(key));
  }
  for (const SegmentId id : dropped) inflight_.erase(seg_key(id));
}

void Node::drop_transfers_from_any(const std::vector<NodeId>& dead_ids,
                                   const std::vector<NodeId>& sorted_dead,
                                   std::vector<NodeId>& hit,
                                   std::vector<SegmentId>& dropped) {
  hit.clear();
  for (const auto& entry : inflight_) {
    const NodeId supplier = entry.second.supplier;
    if (std::binary_search(sorted_dead.begin(), sorted_dead.end(), supplier) &&
        std::find(hit.begin(), hit.end(), supplier) == hit.end()) {
      hit.push_back(supplier);
    }
  }
  if (hit.empty()) return;
  for (const NodeId dead : dead_ids) {
    if (std::find(hit.begin(), hit.end(), dead) != hit.end()) {
      drop_transfers_from(dead, dropped);
    }
  }
}

namespace {
/// An expired retry record linger: once a backoff window has been over
/// this long, the consecutive-failure streak is considered broken and
/// the attempt counter resets (the record is swept). Keeps the table
/// bounded by recent failures instead of stream history.
constexpr SimTime kRetryRecordLinger = 10.0;

[[nodiscard]] float saturating_backoff(double base, double cap, unsigned step) {
  // base * 2^step without overflow drama; step is small (<= 32).
  double window = base;
  for (unsigned i = 0; i < step && window < cap; ++i) window *= 2.0;
  return static_cast<float>(std::min(window, cap));
}
}  // namespace

void Node::note_retry_failure(std::uint32_t key, SimTime now,
                              const fault::RetryPolicy& policy) {
  auto [it, inserted] = retry_state_.try_emplace(key, detail::PackedRetry{});
  auto& record = it->second;
  if (record.attempts < policy.max_attempts &&
      record.attempts < std::numeric_limits<std::uint8_t>::max()) {
    ++record.attempts;
  }
  record.eligible_at = static_cast<float>(now) +
                       saturating_backoff(policy.backoff_base, policy.backoff_cap,
                                          record.attempts - 1u);
  (void)inserted;
}

bool Node::retry_blocked(SegmentId id, SimTime now) const {
  const auto it = retry_state_.find(seg_key(id));
  return it != retry_state_.end() &&
         now < static_cast<SimTime>(it->second.eligible_at);
}

void Node::clear_retry(SegmentId id) { retry_state_.erase(seg_key(id)); }

bool Node::note_supplier_failure(NodeId supplier, SimTime now,
                                 const fault::RetryPolicy& policy) {
  auto [it, inserted] = supplier_strikes_.try_emplace(supplier,
                                                      detail::PackedStrike{});
  auto& record = it->second;
  (void)inserted;
  // Evaluated BEFORE the increment: below threshold `until` is only a
  // freshness stamp, not a blacklist window, so the threshold-crossing
  // strike must still report "newly blacklisted".
  const bool was_blacklisted = record.strikes >= policy.blacklist_strikes &&
                               now < static_cast<SimTime>(record.until);
  if (record.strikes < std::numeric_limits<std::uint8_t>::max()) ++record.strikes;
  if (record.strikes < policy.blacklist_strikes) {
    // Sub-threshold: `until` is the freshness stamp — the slate is
    // wiped (record swept) once the window passes without new strikes.
    record.until = static_cast<float>(now + policy.blacklist_base);
    return false;
  }
  record.until = static_cast<float>(now) +
                 saturating_backoff(policy.blacklist_base, policy.blacklist_cap,
                                    record.strikes - policy.blacklist_strikes);
  return !was_blacklisted;
}

void Node::note_supplier_success(NodeId supplier) {
  supplier_strikes_.erase(supplier);
}

bool Node::supplier_blacklisted(NodeId supplier, SimTime now,
                                const fault::RetryPolicy& policy) const {
  const auto it = supplier_strikes_.find(supplier);
  return it != supplier_strikes_.end() &&
         it->second.strikes >= policy.blacklist_strikes &&
         now < static_cast<SimTime>(it->second.until);
}

void Node::compact_bookkeeping(SimTime now, SegmentId horizon) {
  const std::uint32_t bound = horizon <= 0 ? 0u : seg_key(horizon);
  // Both sweeps are within the FlatMap erase-during-iteration contract:
  // the predicates are idempotent and carry no side effects.
  for (auto it = retry_state_.begin(); it != retry_state_.end();) {
    const bool behind_window = it->first < bound;
    const bool streak_broken =
        static_cast<SimTime>(it->second.eligible_at) + kRetryRecordLinger < now;
    it = behind_window || streak_broken ? retry_state_.erase(it) : ++it;
  }
  for (auto it = supplier_strikes_.begin(); it != supplier_strikes_.end();) {
    it = static_cast<SimTime>(it->second.until) < now ? supplier_strikes_.erase(it)
                                                      : ++it;
  }
  inflight_.maybe_shrink();
  prefetch_pending_.maybe_shrink();
  prefetch_tags_.maybe_shrink();
  retry_state_.maybe_shrink();
  supplier_strikes_.maybe_shrink();
}

}  // namespace continu::core
