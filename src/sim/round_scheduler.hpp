#pragma once
// RoundScheduler — batched periodic scheduling for fleets of
// same-period ticks (per-node scheduling rounds, playback, metric
// sampling, churn).
//
// One PeriodicProcess per node means N standing events in the
// simulator queue plus a heap-allocated closure per node; at 8000+
// nodes those dominate queue depth. A RoundScheduler keeps at most ONE
// pending simulator event no matter how many participants it drives:
// participants live in a flat slot vector, their next-fire times in a
// private (time, seq) min-heap, and the single armed proxy event hands
// every tick due at that instant to the batch callback in one call,
// then re-arms at the new minimum.
//
// Determinism contract (the engine acceptance bar): each participant
// ticks at exactly initial_time, initial_time + period,
// initial_time + 2*period, ... with the SAME floating-point arithmetic
// a self-rescheduling PeriodicProcess would produce (next = fired +
// period), and equal-time ticks appear in add() order within their
// batch. A callback that loops over its batch sees the tick sequence
// the per-node-process fleet it replaced would have run.
//
// Join/leave is O(1): add() takes a free slot (or appends), remove()
// bumps the slot's generation and frees it — stale heap entries and
// stale handles fail the generation compare and are skipped lazily.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"

namespace continu::sim {

class RoundScheduler {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Stale-safe participant reference: generation mismatch makes a
  /// handle to a removed (and possibly reused) slot a strict no-op.
  struct Handle {
    std::uint32_t slot = kNoSlot;
    std::uint32_t generation = 0;
  };

  /// Every fire reports ALL ticks due at the instant in ONE call: each
  /// user as given to add(), in add() order. One callback for the
  /// whole fleet; per-participant state stays with the caller. This is
  /// the shard boundary for intra-session parallelism: the callee may
  /// fan the batch out across a ParallelExecutor, provided it merges
  /// results deterministically. Two consequences, both deterministic:
  ///  * a participant removed while the callee works through the batch
  ///    still appears in it (the callee must check liveness); its next
  ///    tick is not scheduled;
  ///  * a participant add()ed during the batch with zero initial delay
  ///    fires via an immediate proxy re-arm, not inside the current
  ///    batch.
  using BatchTick = std::function<void(const std::vector<std::size_t>& users)>;

  RoundScheduler(Simulator& sim, SimTime period, BatchTick batch);
  /// Cancels the armed proxy event: a scheduler may die before its
  /// simulator without leaving a dangling [this] action behind.
  ~RoundScheduler();
  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  /// Registers a participant whose first tick runs at
  /// now() + initial_delay (clamped to >= 0), then every period.
  Handle add(SimTime initial_delay, std::size_t user);

  /// Registers a participant whose first tick runs at the ABSOLUTE
  /// time `first_tick` (clamped to >= now()), then every period. Lets
  /// a late joiner land on an existing cohort's recurring tick instant
  /// BIT-exactly (now() + delay round-trips through subtraction and
  /// would not), so it merges into that cohort's batch instead of
  /// fragmenting batches into singletons.
  Handle add_at(SimTime first_tick, std::size_t user);

  /// Unregisters a participant in O(1); its pending tick will not run.
  /// Returns true iff the handle was live.
  bool remove(Handle handle) noexcept;

  /// True when the handle refers to a live participant.
  [[nodiscard]] bool contains(Handle handle) const noexcept;

  /// Live participants.
  [[nodiscard]] std::size_t active() const noexcept { return active_; }

  [[nodiscard]] SimTime period() const noexcept { return period_; }

 private:
  struct Participant {
    std::size_t user = 0;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool alive = false;
  };

  struct Entry {
    SimTime time;
    std::uint64_t seq;  ///< add() order; deterministic equal-time tie-break
    std::uint32_t slot;
    std::uint32_t generation;
  };

  /// Max-heap comparator for std::push_heap/std::pop_heap: "later
  /// fires last" makes the std heap a min-heap on (time, seq).
  struct LaterEntry {
    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool entry_live(const Entry& e) const noexcept {
    const Participant& p = parts_[e.slot];
    return p.alive && p.generation == e.generation;
  }

  void fire();
  void rearm();
  void push_entry(Entry entry);
  [[nodiscard]] Entry pop_entry();
  void drop_dead();

  Simulator& sim_;
  SimTime period_;
  BatchTick batch_tick_;
  std::vector<Participant> parts_;
  std::vector<Entry> heap_;
  /// Batch scratch, reused across fires (no per-fire allocs).
  std::vector<Entry> due_entries_;
  std::vector<std::size_t> due_users_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t active_ = 0;
  EventId armed_ = kInvalidEvent;
  SimTime armed_time_ = 0.0;
};

}  // namespace continu::sim
