#pragma once
// Delivery hand-off lanes for the windowed engine.
//
// In quantized mode on the exact engine, deliveries landing on one grid
// instant collect in a bucket behind a proxy event. On the windowed
// engine there are no proxies: every hand-off is ranked by a sequence
// drawn from the simulator's global stream and parked in a per-lane
// slot-pool heap (lane = receiver & mask, so a receiver's deliveries
// never split across lanes and per-pair FIFO holds within a lane by
// sequence order). A MetaHeap over lane heads exposes the earliest
// pending instant, which competes for the simulator's window anchor.
//
// Each window sweeps the lanes in two phases:
//   A (forkable) — each lane pops its entries due within the window
//     into a private, (time, seq)-sorted list; lanes touch only their
//     own heap/scratch, so the pops run on the session executor.
//   B (serial) — the per-lane lists merge by (time, seq). Sequences are
//     assigned at enqueue, in send order, so each instant's run comes
//     out in EXACTLY the order the exact engine's bucket vector would
//     hold; it feeds the same Network::dispatch_bucket, so receiver
//     grouping, shard decomposition and join settlement are the same
//     code as on the exact engine.
//
// The lane heaps reuse the EventQueue pattern: a QuadHeap of 16-byte
// (time, key) entries over stable slot blocks, key = (seq << 24) |
// slot. Hand-offs are never cancelled, so there is no generation check.

#include <cstdint>
#include <memory>
#include <vector>

#include "net/delivery.hpp"
#include "sim/quad_heap.hpp"
#include "sim/sharded_queue.hpp"
#include "util/types.hpp"

namespace continu::net {

/// One delivery awaiting its grid instant: receiver, liveness-filter
/// class, and the handler. (Also the element of the exact engine's
/// buckets — hoisted out of Network so lanes can store it.)
struct HandoffEntry {
  std::uint32_t to = 0;
  bool filtered = true;  ///< wire message (liveness-checked) vs local
  DeliveryAction action;
};

class DeliveryLanes {
 public:
  /// One lane per event-queue shard, so the sweep's fork lines up with
  /// the window collection's.
  static constexpr unsigned kLanes = sim::ShardedEventQueue::kShards;

  DeliveryLanes();
  DeliveryLanes(const DeliveryLanes&) = delete;
  DeliveryLanes& operator=(const DeliveryLanes&) = delete;

  /// Parks a hand-off for receiver `to` at instant `when`, ranked by
  /// the caller-allocated global sequence. Serial only.
  void enqueue(std::uint32_t to, bool filtered, SimTime when, std::uint64_t seq,
               DeliveryAction action);

  /// Earliest pending hand-off instant across all lanes; false when
  /// empty.
  [[nodiscard]] bool next_time(SimTime& time) const;

  /// Phase A: pops lane `lane`'s entries due at or before `limit`
  /// (possibly spanning several grid instants) into its due list, in
  /// (time, seq) order. Touches only lane-local state — safe to fork
  /// one lane per executor shard.
  void collect_due_window(unsigned lane, SimTime limit);

  /// Phase B (serial): merges every lane's due list by (time, seq) into
  /// `out`, recording each entry's instant in `times` (parallel
  /// arrays), releases the slots and refreshes the lane heads. Within
  /// one instant the merged order is global sequence order — send
  /// order — so a caller dispatching `out` instant-run by instant-run
  /// reproduces the exact engine's per-instant buckets. Returns the
  /// number of lanes that contributed at least one entry.
  std::size_t merge_due_window(std::vector<HandoffEntry>& out,
                               std::vector<SimTime>& times);

  /// Hand-offs currently parked.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Bytes held by the lanes: slot blocks (never freed) plus heaps.
  [[nodiscard]] std::size_t approx_bytes() const noexcept;

 private:
  static constexpr unsigned kSlotBits = sim::EventQueue::kSlotBits;
  static constexpr std::uint32_t kSlotMask = sim::EventQueue::kSlotMask;
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;
  static constexpr std::size_t kBlockShift = 7;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

  struct Slot {
    HandoffEntry entry;
    std::uint32_t next_free = kNoFree;
  };

  /// Due reference produced by phase A: enough to merge and to find
  /// the record without touching another lane's state.
  struct DueRef {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Lane {
    std::vector<std::unique_ptr<Slot[]>> blocks;
    /// Min-heap on (time, key = (seq << kSlotBits) | slot); key order
    /// at equal times is sequence order.
    sim::QuadHeap heap;
    std::uint32_t free_head = kNoFree;
    std::uint32_t slot_count = 0;
    std::vector<DueRef> due;  ///< phase-A scratch, consumed by phase B

    [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
      return blocks[index >> kBlockShift][index & (kBlockSize - 1)];
    }
    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index) noexcept;
  };

  std::vector<Lane> lanes_;
  sim::MetaHeap meta_;
  std::size_t size_ = 0;

  void refresh_meta(std::uint32_t lane);
};

}  // namespace continu::net
