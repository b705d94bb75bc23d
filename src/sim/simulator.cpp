#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/parallel/executor.hpp"

namespace continu::sim {

Simulator::Simulator(LaxConfig lax) {
  if (lax.skew_buckets == 0) return;
  if (lax.grid_s <= 0.0) {
    throw std::logic_error("Simulator: the windowed engine needs a positive grid");
  }
  if (lax.exec == nullptr) {
    throw std::logic_error("Simulator: the windowed engine needs an executor");
  }
  squeue_ = std::make_unique<ShardedEventQueue>(lax.skew_buckets);
  lax_ = std::move(lax);
}

std::size_t Simulator::drain_lax(SimTime horizon, std::size_t max_windows) {
  std::size_t ran = 0;
  const SimTime window_s = static_cast<SimTime>(lax_.skew_buckets) * lax_.grid_s;
  for (std::size_t windows = 0; windows < max_windows; ++windows) {
    SimTime qt = 0.0;
    SimTime dt = 0.0;
    const bool have_event = squeue_->next_time(qt);
    const bool have_bucket = frontier_ != nullptr && frontier_->next_time(dt);
    if (!have_event && !have_bucket) break;
    // The window anchors at the earliest pending time across both
    // sources and extends one skew window past it. Anchoring at the
    // global minimum is what bounds the clock skew: nothing in the
    // window runs more than `window_s` ahead of something still pending
    // somewhere.
    SimTime anchor = have_event ? qt : dt;
    if (have_bucket && dt < anchor) anchor = dt;
    if (anchor > horizon) break;
    const SimTime limit = std::min(anchor + window_s, horizon);
    // Phase A — forked window collection: every shard pops its events
    // due within the window into its private scratch. Queue-local heap
    // pops only; the window's accounting is serial in finish_window.
    constexpr unsigned nshards = ShardedEventQueue::kShards;
    lax_.exec->for_shards(
        obs::Phase::kLaxDrain, nshards, /*grain=*/1,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            squeue_->collect_window(static_cast<std::uint32_t>(s), limit);
          }
        });
    squeue_->finish_window(anchor, lax_.grid_s);
    // Phase B — serial execution in shard-index order, each event at
    // its own local clock (this is the skew: the clock is non-monotonic
    // within the window, bounded by window_s). Emissions landing inside
    // the window were not collected — they fence to the next window —
    // and cancels of collected refs are honoured at execution.
    ran += squeue_->execute_window([this](SimTime t) {
      now_ = t;
      ++executed_;
    });
    // Bucket sweep: every delivery bucket whose instant is <= limit is
    // detached, then dispatched in time order, each at its own clock.
    if (frontier_ != nullptr) ran += frontier_->dispatch_window(limit);
  }
  return ran;
}

std::size_t Simulator::drain(SimTime horizon, std::size_t max_steps) {
  if (squeue_) return drain_lax(horizon, max_steps);
  std::size_t ran = 0;
  EventQueue::DueEvent due;
  while (ran < max_steps && queue_.acquire_due(horizon, due)) {
    now_ = due.time;
    ++executed_;
    ++ran;
    queue_.execute_and_release(due);
  }
  return ran;
}

std::size_t Simulator::run_until(SimTime horizon) {
  const std::size_t ran =
      drain(horizon, std::numeric_limits<std::size_t>::max());
  if (now_ < horizon) now_ = horizon;
  return ran;
}

std::size_t Simulator::run_all() {
  return drain(std::numeric_limits<SimTime>::infinity(),
               std::numeric_limits<std::size_t>::max());
}

bool Simulator::step() {
  return drain(std::numeric_limits<SimTime>::infinity(), 1) > 0;
}

}  // namespace continu::sim
