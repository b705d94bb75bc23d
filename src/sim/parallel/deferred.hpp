#pragma once
// Per-shard buffers for the fork/join phases of a parallel session —
// the "merge in shard order" half of the determinism contract.
//
// Worker shards may not touch shared mutable engine state (the event
// queue's sequence counter, the session's stats, a collector). Instead
// each shard owns one of these buffers, records what it WOULD have
// done, and after the join the caller applies every buffer in shard
// order. Because shard boundaries depend only on (count, grain) — see
// ParallelExecutor::shard_count — the applied order is identical at
// every thread count, so event sequence numbers and floating-point
// accumulations reproduce serial execution exactly.

#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace continu::sim::parallel {

/// Buffered event emissions from one shard of a fork/join phase.
class EmissionBuffer {
 public:
  /// Records an emission at an ABSOLUTE simulation time. Callables are
  /// stored inline in EventActions, so deferring allocates nothing
  /// beyond the buffer's vector.
  template <typename F>
  void defer_at(SimTime time, F&& f) {
    static_assert(fits_inline<F>, "emission capture exceeds the inline action buffer");
    entries_.push_back(EventQueue::Deferred{time, EventAction(std::forward<F>(f))});
  }

  /// Pushes every recorded emission into the simulator, in record
  /// order, and clears the buffer. Called once per shard, in shard
  /// order, after the join.
  void flush_into(Simulator& sim) { sim.schedule_deferred(entries_); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }

 private:
  std::vector<EventQueue::Deferred> entries_;
};

/// Ordered reduction helper: folds per-shard partials into `total` in
/// shard order with `total += partial`. Trivial on purpose — the value
/// is the NAME at call sites: it marks the spots whose correctness
/// depends on the fixed shard structure, not on thread count.
template <typename T>
void reduce_in_order(std::vector<T>& partials, T& total) {
  for (T& partial : partials) {
    total += partial;
  }
}

}  // namespace continu::sim::parallel
