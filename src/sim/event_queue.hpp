#pragma once
// Slot-pool event queue: 16-byte (time, id) entries ordered by a
// calendar (CalendarQueue, sim/calendar_queue.hpp) over a
// generation-stamped pool of event slots.
//
// Design, and why it is fast:
//   * The calendar holds only (time, id) — 16 bytes per entry, never
//     the 64-byte action. Most pending events sit unsorted in the
//     buckets of its one-second ring, so a schedule is a chunk append
//     and a pop walks a small heap holding one 2^-10 s bucket of events
//     (QuadHeap, sim/quad_heap.hpp) instead of a heap of every pending
//     event. BM_EventQueueHold (pop one, schedule one, at 8k and 90k
//     pending) is the row this design is judged by; docs/BENCHMARKS.md
//     holds its re-measured tables.
//   * Actions live in a util::BlockPool (util/block_pool.hpp) of slots
//     with stable addresses. Each slot is one 64-byte line holding only
//     the action; its id is the slot's pool link word (8 bytes), so a
//     pending event costs 72 bytes. An EventId packs
//     (sequence << 24 | slot): the monotonic sequence gives
//     deterministic FIFO tie-breaking among equal times, the low bits
//     find the slot in O(1).
//   * While a slot is free its link word holds the pool's free-list
//     link, a bare slot index below 2^24. Every live id carries a
//     sequence of at least 1 in the bits above, so no id — current or
//     stale — can ever equal a link.
//   * cancel() is one compare + one array write (free the slot); the
//     calendar entry dies lazily when it surfaces, validated by a single
//     id compare against the side array. No hashing.
//
// Cancellation matters: a node that leaves the overlay abandons its
// pending periodic events; cancelling an already-fired or stale id is
// a strict no-op (the slot's current id no longer matches).
//
// One way in, one way out per engine: events enter only through
// emplace(), constructed in their slot. Both engines drain this one
// queue: the exact engine with acquire_due() + execute_and_release();
// the windowed engine with collect_window() + execute_collected(), its
// window anchor read through peek().

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"
#include "util/block_pool.hpp"

namespace continu::sim {

class EventQueue {
 public:
  /// Slot-index bits in an EventId: up to ~16.7M concurrently pending
  /// events (one index, kSlotMask, is the free-list terminator); the
  /// 40-bit sequence above them outlasts any plausible run.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1u;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `f` at `time` and returns the unique handle. The
  /// callable is constructed directly in its pool slot (zero moves,
  /// zero allocations); the slot line is prefetched while the calendar
  /// insertion runs.
  template <typename F>
  EventId emplace(SimTime time, F&& f) {
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t free_head = slots_.free_head();
    const std::uint32_t index = free_head != kNoFree ? free_head : slots_.grow();
    Slot& s = slots_.item(index);  // blocks are stable; calendar growth can't move it
    __builtin_prefetch(&s, 1);
    const EventId id = (seq << kSlotBits) | index;
    calendar_.push(time, id);
    // Construct the action BEFORE publishing the slot: if the capture's
    // construction throws (or was an empty std::function), the slot
    // still reads as free (id mismatch), so the calendar entry above is
    // lazily reaped and the freelist is untouched — the queue stays
    // consistent.
    s.action.emplace(std::forward<F>(f));
    if (!s.action) {
      throw std::invalid_argument("EventQueue: empty action");
    }
    EventId& slot_id = slots_.link(index);
    if (index == free_head) {
      // Chain-prefetch the next free slot: it gets a whole push of
      // lead time before the next emplace writes it.
      const std::uint32_t next = slots_.pop_free();
      if (next != kNoFree) __builtin_prefetch(&slots_.item(next), 1);
    }
    slot_id = id;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return id;
  }

  /// Draws one sequence number without scheduling anything. The
  /// windowed engine's network draws one per quantized hand-off, so the
  /// hand-offs keep their place in the sequence stream.
  [[nodiscard]] std::uint64_t allocate_seq() noexcept { return next_seq_++; }

  /// The exact engine's way out. A due event is acquired (de-queued,
  /// de-registered so cancels no-op) and then executed IN PLACE in its
  /// slot — the action is never moved. acquire_due returns false when
  /// nothing is due at or before `horizon`. Every acquire_due must be
  /// paired with exactly one execute_and_release before the next
  /// acquire.
  struct DueEvent {
    SimTime time = 0.0;
    std::uint32_t slot_index = 0;
  };
  bool acquire_due(SimTime horizon, DueEvent& out);
  void execute_and_release(const DueEvent& due);

  /// Cancels a pending event in O(1). Returns true iff the id was
  /// live; fired, cancelled or stale ids are ignored.
  bool cancel(EventId id) noexcept;

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// High-water mark of live events since construction.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_live_; }

  /// Bytes held by the queue: the slot pool with its id words plus
  /// the calendar (ring, chunk pool and both heaps).
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return slots_.capacity_bytes() + calendar_.capacity_bytes();
  }

  /// Head (time, id) of the earliest live event without removing it;
  /// returns false when the queue is empty. Purges lazily-cancelled
  /// tops, so the reported head is always live — the windowed engine
  /// anchors its windows on it.
  bool peek(SimTime& time, EventId& id) const;

  /// Reference to an event collected by a window pop: removed from
  /// the calendar but still REGISTERED in its slot, so cancels issued
  /// between collection and execution are honoured (the slot id stops
  /// matching and execute_collected skips the ref).
  struct WindowRef {
    SimTime time = 0.0;
    EventId id = kInvalidEvent;
  };

  /// Window collection: appends every live calendar entry with time
  /// <= limit to `out`, in (time, id) order, WITHOUT de-registering
  /// the slots.
  void collect_window(SimTime limit, std::vector<WindowRef>& out);

  /// True while a collected ref's event is still live (not cancelled
  /// since collection).
  [[nodiscard]] bool collected_live(const WindowRef& ref) const noexcept {
    return slots_.link(static_cast<std::uint32_t>(ref.id & kSlotMask)) == ref.id;
  }

  /// Executes a collected ref in place iff still live: de-registers,
  /// consumes the action, releases the slot. Returns whether it ran
  /// (false = cancelled between collection and execution).
  bool execute_collected(const WindowRef& ref);

  /// One pending action, exactly one cache line.
  struct alignas(64) Slot {
    EventAction action;
  };
  /// Slots in 512-slot pool blocks. Blocks never move, so an action can
  /// run in its slot even while it schedules new events. A slot's link
  /// word is its live id; kInvalidEvent while its action runs; the next
  /// free index (or kNoFree) while it sits on the free list. kNoFree,
  /// the pool's limit, is never handed out, so every free link stays
  /// below 2^kSlotBits and can never equal an id.
  using SlotPool = util::BlockPool<Slot, EventId, 9, kSlotMask>;
  static constexpr std::uint32_t kNoFree = SlotPool::kNone;
  /// Pool bytes per pending event: the action's line, and the line
  /// plus its id word.
  static constexpr std::size_t kSlotLineBytes = sizeof(Slot);
  static constexpr std::size_t kSlotBytes = SlotPool::kBytesPerItem;

 private:
  /// Discards calendar entries whose slot no longer carries their id
  /// (cancelled, or the slot was freed and reused).
  void drop_dead_top() const;

  SlotPool slots_;
  // (time, id) entries; id order among live entries is schedule order
  // (the sequence occupies the high bits). Mutable so peek() can purge
  // dead heads without changing observable state.
  mutable CalendarQueue calendar_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace continu::sim
