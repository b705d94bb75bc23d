#pragma once
// Per-node state, assembling the software architecture of Figure 1:
// P2P Overlay Manager (Peer Table), Data Scheduler inputs, Buffer, VoD
// Data Backup, Rate Controller. Protocol behaviour (who sends what to
// whom, and when) lives in core::Session, which owns all nodes and the
// network; this keeps node state independently constructible and
// testable.

#include <memory>
#include <optional>

#include "core/config.hpp"
#include "core/rate_controller.hpp"
#include "core/stream_buffer.hpp"
#include "core/urgent_line.hpp"
#include "dht/backup_store.hpp"
#include "dht/id_space.hpp"
#include "dht/peer_table.hpp"
#include "overlay/neighbor_set.hpp"
#include "overlay/overheard_list.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace continu::core {

/// How a pending segment transfer was initiated — gossip scheduling or
/// DHT pre-fetch. Pre-fetched segments carry the paper's "tag" so the
/// scheduler can recognize repeats (alpha case 2).
enum class TransferKind : std::uint8_t {
  kScheduled,  ///< pulled by the gossip scheduler
  kPrefetch,   ///< fetched on demand through the DHT
  kPushed,     ///< relayed unrequested (GridMedia-style push)
};

struct InflightTransfer {
  TransferKind kind = TransferKind::kScheduled;
  NodeId supplier = kInvalidNode;
  SimTime requested_at = 0.0;
};

namespace detail {
/// Packed in-flight record (12 bytes; the public InflightTransfer is
/// reconstructed on read). requested_at is float: it only feeds
/// timeout-cutoff comparisons at whole-period granularity.
struct PackedTransfer {
  float requested_at = 0.0f;
  NodeId supplier = kInvalidNode;
  TransferKind kind = TransferKind::kScheduled;
};

/// Packed retry record (8 bytes): when the segment may be re-requested
/// and how many consecutive timeouts it has accumulated (capped at
/// RetryPolicy::max_attempts — the backoff saturates, it never grows
/// past the cap).
struct PackedRetry {
  float eligible_at = 0.0f;
  std::uint8_t attempts = 0;
};

/// Packed supplier-strike record (8 bytes). `until` doubles as the
/// record's freshness stamp: below the strike threshold it marks when
/// the slate is wiped; at/above it, when the blacklist window ends.
/// compact_bookkeeping erases any record whose `until` has passed, so
/// the blacklist decays on quiet as well as on success.
struct PackedStrike {
  float until = 0.0f;
  std::uint8_t strikes = 0;
};
}  // namespace detail

class Node {
 public:
  /// `urgent` seeds the node's urgent line; the session derives it once
  /// from the trace and hands the same value to every node.
  Node(NodeId id, std::size_t session_index, const SystemConfig& config,
       const UrgentLineConfig& urgent, const dht::IdSpace& space,
       double inbound_rate, double outbound_rate, double ping_ms);

  // --- identity -----------------------------------------------------------
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t session_index() const noexcept { return session_index_; }
  [[nodiscard]] double ping_ms() const noexcept { return ping_ms_; }

  // --- liveness -----------------------------------------------------------
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  void set_alive(bool alive) noexcept { alive_ = alive; }
  [[nodiscard]] bool is_source() const noexcept { return is_source_; }
  void mark_source() noexcept { is_source_ = true; }

  // --- bandwidth ----------------------------------------------------------
  [[nodiscard]] double inbound_rate() const noexcept { return inbound_rate_; }
  [[nodiscard]] double outbound_rate() const noexcept { return outbound_rate_; }

  /// Fluid-model transfer queues: the time at which this node's uplink
  /// (resp. downlink) next becomes free.
  [[nodiscard]] SimTime uplink_free_at() const noexcept { return uplink_free_at_; }
  void set_uplink_free_at(SimTime t) noexcept { uplink_free_at_ = t; }
  [[nodiscard]] SimTime downlink_free_at() const noexcept { return downlink_free_at_; }
  void set_downlink_free_at(SimTime t) noexcept { downlink_free_at_ = t; }

  /// Available sending rate advertised in DHT replies: the full uplink
  /// rate discounted by current backlog (seconds of queued work).
  [[nodiscard]] double available_sending_rate(SimTime now) const noexcept;

  // --- components (Figure 1) ------------------------------------------------
  [[nodiscard]] StreamBuffer& buffer() noexcept { return buffer_; }
  [[nodiscard]] const StreamBuffer& buffer() const noexcept { return buffer_; }
  [[nodiscard]] overlay::NeighborSet& neighbors() noexcept { return neighbors_; }
  [[nodiscard]] const overlay::NeighborSet& neighbors() const noexcept { return neighbors_; }
  [[nodiscard]] dht::PeerTable& dht_peers() noexcept { return dht_peers_; }
  [[nodiscard]] const dht::PeerTable& dht_peers() const noexcept { return dht_peers_; }
  [[nodiscard]] overlay::OverheardList& overheard() noexcept { return overheard_; }
  [[nodiscard]] const overlay::OverheardList& overheard() const noexcept { return overheard_; }
  [[nodiscard]] dht::BackupStore& backup() noexcept { return backup_; }
  [[nodiscard]] const dht::BackupStore& backup() const noexcept { return backup_; }
  [[nodiscard]] RateController& rates() noexcept { return rates_; }
  [[nodiscard]] const RateController& rates() const noexcept { return rates_; }
  [[nodiscard]] UrgentLine& urgent_line() noexcept { return urgent_line_; }
  [[nodiscard]] const UrgentLine& urgent_line() const noexcept { return urgent_line_; }

  // --- in-flight bookkeeping ----------------------------------------------
  /// Registers a pending transfer; returns false if one is already
  /// pending for the segment (no double-request).
  bool begin_transfer(SegmentId id, TransferKind kind, NodeId supplier, SimTime now);

  /// Completes (erases) the pending entry; returns its record.
  std::optional<InflightTransfer> end_transfer(SegmentId id);

  [[nodiscard]] bool transfer_pending(SegmentId id) const;
  [[nodiscard]] std::size_t inflight_count() const noexcept { return inflight_.size(); }

  /// One-pass timeout sweep over BOTH in-flight tables (transfers of
  /// any kind and pre-fetches): erases every entry requested before
  /// `cutoff` and returns how many were dropped. For each dropped
  /// in-flight transfer with a known supplier (whatever its
  /// TransferKind), `on_failed(supplier)` fires exactly once so
  /// the caller can decay the rate estimate — directly, or deferred
  /// into a per-shard list when the sweep runs inside a fork (the
  /// prepare-local phase applies those decays after the join, in shard
  /// order). Touches only this node's own tables, so it is safe to run
  /// concurrently across nodes. Erase-during-iteration is within the
  /// FlatMap contract: the cutoff predicate is idempotent, and the
  /// side effect rides the erase, so a wrap-displaced revisit (which is
  /// only ever a non-erased entry) can never double-fire it.
  /// Hardening tallies produced by a policy-carrying sweep, merged into
  /// the session stats by the caller (per-shard when forked).
  struct SweepHardening {
    std::uint64_t backoffs = 0;    ///< retry records created or escalated
    std::uint64_t blacklists = 0;  ///< blacklist activations
  };

  /// When `policy` is non-null the same one-pass sweep also records the
  /// hardening state for each dropped entry: a retry-backoff record for
  /// the segment (consulted by plan_scheduling / plan_prefetch) and a
  /// strike against the supplier (blacklist after repeated failures).
  /// All writes land in this node's own tables, so the fork-safety
  /// argument is unchanged. The fault-free path (null policy) is
  /// bit-identical to the pre-hardening sweep.
  template <typename F>
  std::size_t sweep_timeouts(SimTime cutoff, F&& on_failed,
                             const fault::RetryPolicy* policy = nullptr,
                             SimTime now = 0.0,
                             SweepHardening* hardening = nullptr) {
    std::size_t dropped = 0;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (static_cast<SimTime>(it->second.requested_at) < cutoff) {
        if (it->second.supplier != kInvalidNode) {
          on_failed(it->second.supplier);
          if (policy != nullptr &&
              note_supplier_failure(it->second.supplier, now, *policy)) {
            ++hardening->blacklists;
          }
        }
        if (policy != nullptr) {
          note_retry_failure(it->first, now, *policy);
          ++hardening->backoffs;
        }
        it = inflight_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    for (auto it = prefetch_pending_.begin(); it != prefetch_pending_.end();) {
      if (static_cast<SimTime>(it->second) < cutoff) {
        if (policy != nullptr) {
          note_retry_failure(it->first, now, *policy);
          ++hardening->backoffs;
        }
        it = prefetch_pending_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  // --- pre-fetch bookkeeping (separate from gossip transfers: the two
  // channels deliberately RACE; the alpha tag mechanism reconciles) ----
  /// Registers a pending pre-fetch; false if one is already running.
  bool begin_prefetch(SegmentId id, SimTime now);
  /// Completes/aborts the pending pre-fetch entry.
  void end_prefetch(SegmentId id);
  [[nodiscard]] bool prefetch_pending(SegmentId id) const;
  [[nodiscard]] std::size_t prefetch_inflight_count() const noexcept {
    return prefetch_pending_.size();
  }

  /// Was this segment delivered by pre-fetch (the paper's tag)? Used to
  /// recognize "repeated data" when gossip later delivers it too.
  [[nodiscard]] bool prefetch_tagged(SegmentId id) const;
  void tag_prefetched(SegmentId id);
  /// Drops tags older than the window head (bounded memory).
  void expire_tags(SegmentId horizon);

  /// Drops in-flight entries whose supplier died (abrupt failure).
  /// Returns the affected segment ids.
  std::vector<SegmentId> drop_transfers_from(NodeId supplier);

  // --- retry/backoff + supplier blacklist (hardening; fault_plan.hpp) ----
  /// True while `id` sits inside its retry-backoff window.
  [[nodiscard]] bool retry_blocked(SegmentId id, SimTime now) const;
  /// Clears the retry record (the segment arrived after all).
  void clear_retry(SegmentId id);
  /// Adds a strike against `supplier`; returns true when this strike
  /// activated (or re-armed) the blacklist window.
  bool note_supplier_failure(NodeId supplier, SimTime now,
                             const fault::RetryPolicy& policy);
  /// A completed transfer wipes the supplier's strike slate.
  void note_supplier_success(NodeId supplier);
  /// True while `supplier`'s offers are ignored by the scheduler (the
  /// policy carries the strike threshold the packed record is read
  /// against).
  [[nodiscard]] bool supplier_blacklisted(NodeId supplier, SimTime now,
                                          const fault::RetryPolicy& policy) const;
  [[nodiscard]] std::size_t retry_record_count() const noexcept {
    return retry_state_.size();
  }
  [[nodiscard]] std::size_t strike_record_count() const noexcept {
    return supplier_strikes_.size();
  }

  // Estimated footprint of the bookkeeping tables — memory sizing.
  // Flat tables charge capacity x (slot + 1 meta byte). Per-table
  // detail for the footprint report / README budget table; the rate
  // table is reported via rates().approx_bytes().
  [[nodiscard]] std::size_t approx_transfer_map_bytes() const noexcept {
    return inflight_.approx_bytes();
  }
  [[nodiscard]] std::size_t approx_prefetch_map_bytes() const noexcept {
    return prefetch_pending_.approx_bytes();
  }
  [[nodiscard]] std::size_t approx_tag_set_bytes() const noexcept {
    return prefetch_tags_.approx_bytes();
  }
  [[nodiscard]] std::size_t approx_retry_map_bytes() const noexcept {
    return retry_state_.approx_bytes();
  }
  [[nodiscard]] std::size_t approx_blacklist_bytes() const noexcept {
    return supplier_strikes_.approx_bytes();
  }

  /// Periodic GC hook (called once per round): sweeps expired hardening
  /// records (retry entries behind the window head or long past their
  /// backoff, strike records whose decay window passed) and shrinks
  /// bookkeeping tables whose burst capacity has drained, so
  /// steady-state footprint tracks live state instead of the all-time
  /// high-water mark. Not noexcept — the shrink rehash allocates and
  /// may throw bad_alloc.
  void compact_bookkeeping(SimTime now, SegmentId horizon);

  // --- playback-round bookkeeping -------------------------------------------
  /// Round statistics updated by the session each period.
  struct RoundStats {
    std::uint64_t played = 0;
    std::uint64_t missed = 0;
  };
  [[nodiscard]] RoundStats& round_stats() noexcept { return round_stats_; }

  /// Stall-episode tracking bit, owned by the metrics sampler: set
  /// while the node is inside a run of rounds with missed segments, so
  /// episode starts (ok -> stalled transitions) can be counted.
  [[nodiscard]] bool in_stall() const noexcept { return in_stall_; }
  void set_in_stall(bool stalled) noexcept { in_stall_ = stalled; }

 private:
  NodeId id_;
  std::size_t session_index_;
  double ping_ms_;
  bool alive_ = true;
  bool is_source_ = false;

  double inbound_rate_;
  double outbound_rate_;
  SimTime uplink_free_at_ = 0.0;
  SimTime downlink_free_at_ = 0.0;

  StreamBuffer buffer_;
  overlay::NeighborSet neighbors_;
  dht::PeerTable dht_peers_;
  overlay::OverheardList overheard_;
  dht::BackupStore backup_;
  RateController rates_;
  UrgentLine urgent_line_;

  /// Keys are window-local segment ids narrowed to 32 bits — the same
  /// boundedness argument as the 20-bit wire head: at 10 segments/s,
  /// 2^32 ids is a 13-year stream. seg_key() asserts the precondition.
  [[nodiscard]] static std::uint32_t seg_key(SegmentId id) noexcept;

  /// Inserts/escalates the retry record for a timed-out segment key.
  void note_retry_failure(std::uint32_t key, SimTime now,
                          const fault::RetryPolicy& policy);

  util::FlatMap<std::uint32_t, detail::PackedTransfer> inflight_;
  util::FlatMap<std::uint32_t, float> prefetch_pending_;
  /// Pre-fetch delivery tags (paper: "tag"). Membership is the value,
  /// so a flat SET (5 bytes/slot) replaces the old map-to-true.
  util::FlatSet<std::uint32_t> prefetch_tags_;
  /// Hardening state (empty unless a RetryPolicy is active): per-segment
  /// backoff records and per-supplier strike/blacklist records. Same
  /// bounded FlatMap discipline as the in-flight tables — swept by
  /// compact_bookkeeping, zero heap when empty.
  util::FlatMap<std::uint32_t, detail::PackedRetry> retry_state_;
  util::FlatMap<NodeId, detail::PackedStrike> supplier_strikes_;
  RoundStats round_stats_;
  bool in_stall_ = false;
};

}  // namespace continu::core
