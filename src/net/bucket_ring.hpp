#pragma once
// BucketRing — the quantized network's pending deliveries, filed by
// grid instant. Both engines use it: the exact engine detaches one
// bucket per proxy event (take), the windowed engine sweeps every
// bucket up to a window's limit in time order (earliest, take_through).
//
//   ring      one slot per grid step over the next kSlots steps from a
//             cursor: the bucket of instant k * grid sits in slot
//             k mod kSlots, and an occupancy bitmap finds the next
//             non-empty one. Filing costs a multiply and a compare
//             instead of a tree walk.
//   overflow  an ordered map for the instants the ring cannot index:
//             off the grid (a clamped `when < now`), behind the cursor,
//             or beyond its horizon. Those beyond the horizon move into
//             the ring as the cursor reaches them, so an on-grid instant
//             inside the ring's span is never in the overflow.
//
// Both keep a bucket as a list of small fixed-size chunks in one
// util::ChunkRing (util/block_pool.hpp, where the pool is described),
// and a bucket's chunks go back to the pool once it is dispatched, so
// pending memory tracks the live deliveries, never the largest bucket
// seen.
//
// The cursor is a lower bound on every ring instant. A take moves it to
// the instant taken (the exact engine takes in time order, and every
// later filing is at or after the clock), a sweep to the first instant
// it detached.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "net/delivery.hpp"
#include "util/block_pool.hpp"
#include "util/types.hpp"

namespace continu::net {

/// One delivery awaiting its grid instant: receiver, liveness-filter
/// class, and the handler.
struct HandoffEntry {
  std::uint32_t to = 0;
  bool filtered = true;  ///< wire message (liveness-checked) vs local
  DeliveryAction action;
};

class BucketRing {
 public:
  /// Ring span in grid steps: 4.1 s at the 1 ms grid. Deliveries are
  /// filed at most a few seconds ahead (latency plus the supplier's
  /// uplink backlog, which admission caps): of a seed-42 grid_8k run's
  /// filings, 1,248 land beyond the span and go through the overflow;
  /// at 8192 slots none would, for 32 KiB more per session.
  static constexpr std::uint32_t kSlots = 4096;
  /// Entries per chunk. Far buckets hold one or two deliveries, so a
  /// chunk costs little over its live entries: on q1_static_1k (8192
  /// slots) engine memory measured 1588 B/node at 1 entry, 1679 at 2
  /// and 1910 at 4, against a 1720 B/node budget, and a 1-entry chain
  /// read slower on grid_8k.
  static constexpr std::uint32_t kChunkEntries = 2;
  /// Chunks in 128-chunk pool blocks (18 KiB of entries).
  using Store = util::ChunkRing<HandoffEntry, kChunkEntries, alignof(HandoffEntry), 7, kSlots>;

  /// A detached bucket: its instant and its entries.
  struct Batch {
    SimTime time = 0.0;
    Store::List list;
  };

  /// `grid_s` > 0 is the latency grid; 0 makes an unused ring that
  /// holds no memory.
  explicit BucketRing(SimTime grid_s);
  ~BucketRing();
  BucketRing(const BucketRing&) = delete;
  BucketRing& operator=(const BucketRing&) = delete;

  /// Files a delivery under instant `when`. Returns true when this
  /// created the instant's bucket.
  bool append(SimTime when, std::uint32_t to, bool filtered, DeliveryAction&& action) {
    assert(grid_s_ > 0.0 && "BucketRing: filing into the ring of a continuous network");
    std::uint64_t k = 0;
    if (ring_index(when, k)) {
      Store::List& list = store_.slot(k);
      const bool created = list.count == 0;
      if (created) store_.mark(k);
      ::new (store_.append(list)) HandoffEntry{to, filtered, std::move(action)};
      ++ring_entries_;
      return created;
    }
    return append_overflow(when, to, filtered, std::move(action));
  }

  [[nodiscard]] bool empty() const noexcept {
    return ring_entries_ == 0 && overflow_.empty();
  }

  /// The earliest pending instant; false when nothing is pending.
  [[nodiscard]] bool earliest(SimTime& when) const;

  /// Detaches the bucket at `when`. A missing bucket is a lost
  /// delivery, not a case to skip: it aborts, naming the instant.
  [[nodiscard]] Batch take(SimTime when);

  /// Detaches every bucket whose instant is <= limit and appends them
  /// to `out` in time order.
  void take_through(SimTime limit, std::vector<Batch>& out);

  /// Fills `out` with the batch's entries in filing order.
  void entries(const Batch& batch, std::vector<HandoffEntry*>& out) {
    store_.filing_order(batch.list, out);
  }

  /// Returns the batch's chunks to the pool without touching its
  /// entries: every action must already be empty (consumed or reset).
  void release(Batch& batch) noexcept { store_.release(batch.list); }

  /// Destroys the batch's entries, then releases it: teardown and
  /// unwinding, where some actions never ran.
  void discard(Batch& batch) noexcept {
    store_.drain(batch.list, [](HandoffEntry* e, std::uint32_t n) { std::destroy_n(e, n); });
  }

  /// Bytes of the chunks held by pending buckets.
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return store_.live_bytes(); }

  /// Every byte the ring holds: slots, bitmap, chunk pool and the
  /// overflow's nodes.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

 private:
  /// An overflow bucket; `ahead` marks an on-grid instant filed beyond
  /// the ring's span, which the cursor may later bring inside it.
  struct Overflow {
    Store::List list;
    bool ahead = false;
  };

  /// True when `when` is grid instant k (exactly k * grid) with k in
  /// the ring's span; k is set whenever `when` is on the grid.
  [[nodiscard]] bool on_grid(SimTime when, std::uint64_t& k) const noexcept {
    const SimTime q = when * inv_grid_s_;
    if (!(q >= 0.0 && q < 0x1p50)) return false;
    k = static_cast<std::uint64_t>(q + 0.5);
    return static_cast<SimTime>(k) * grid_s_ == when;
  }
  [[nodiscard]] bool ring_index(SimTime when, std::uint64_t& k) const noexcept {
    return on_grid(when, k) && k - cur_ < kSlots;
  }
  [[nodiscard]] SimTime instant_of(std::uint64_t k) const noexcept {
    return static_cast<SimTime>(k) * grid_s_;
  }

  bool append_overflow(SimTime when, std::uint32_t to, bool filtered,
                       DeliveryAction&& action);
  /// Detaches an overflow bucket into a batch.
  [[nodiscard]] Batch detach_overflow(std::map<SimTime, Overflow>::iterator it) noexcept;
  /// Detaches ring slot `k` (occupied) into a batch.
  [[nodiscard]] Batch detach_slot(std::uint64_t k) noexcept;
  /// First occupied ring instant in [from, cur_ + kSlots), or
  /// cur_ + kSlots when there is none.
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t from) const noexcept {
    return store_.next_occupied(from, cur_ + kSlots);
  }
  /// Moves the cursor forward to `k` (a lower bound on every ring
  /// instant), then pulls overflow instants that entered the span.
  void advance(std::uint64_t k);

  SimTime grid_s_;
  SimTime inv_grid_s_;
  std::uint64_t cur_ = 0;  ///< grid index of the ring's first slot
  std::size_t ring_entries_ = 0;
  Store store_;
  /// Overflow buckets by instant, and how many of them are ahead.
  std::map<SimTime, Overflow> overflow_;
  std::size_t overflow_ahead_ = 0;
};

}  // namespace continu::net
