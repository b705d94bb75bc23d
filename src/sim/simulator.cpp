#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace continu::sim {

Simulator::Simulator(LaxConfig lax) {
  if (lax.skew_buckets == 0) return;
  if (lax.grid_s <= 0.0) {
    throw std::logic_error("Simulator: the windowed engine needs a positive grid");
  }
  lax_ = lax;
  lax_stats_.lead_histogram.assign(static_cast<std::size_t>(lax.skew_buckets) + 1, 0);
}

std::size_t Simulator::queue_bytes() const noexcept {
  std::size_t refs = window_.capacity();
  for (const auto& shard : shards_) refs += shard.capacity();
  return queue_.approx_bytes() + refs * sizeof(EventQueue::WindowRef);
}

std::size_t Simulator::drain_lax(SimTime horizon, std::size_t max_windows) {
  std::size_t ran = 0;
  const SimTime window_s = static_cast<SimTime>(lax_.skew_buckets) * lax_.grid_s;
  const std::size_t buckets = lax_stats_.lead_histogram.size();
  for (std::size_t windows = 0; windows < max_windows; ++windows) {
    SimTime qt = 0.0;
    EventId head = kInvalidEvent;
    SimTime dt = 0.0;
    const bool have_event = queue_.peek(qt, head);
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
    // Collection: every event due within the window, in global (time,
    // seq) order, split by shard — so each shard's list keeps its own
    // (time, seq) order.
    queue_.collect_window(limit, window_);
    for (const EventQueue::WindowRef& ref : window_) {
      shards_[(ref.id >> EventQueue::kSlotBits) & (kLaxShards - 1)].push_back(ref);
    }
    window_.clear();
    ++lax_stats_.windows;
    // Execution, serial in shard-index order, each event at its own
    // local clock (this is the skew: the clock is non-monotonic within
    // the window, bounded by window_s). Emissions landing inside the
    // window were not collected — they fence to the next window — and
    // cancels of collected refs are honoured at execution.
    for (std::vector<EventQueue::WindowRef>& shard : shards_) {
      if (shard.empty()) ++lax_stats_.stalled_shards;
      for (const EventQueue::WindowRef& ref : shard) {
        std::size_t lead = static_cast<std::size_t>((ref.time - anchor) / lax_.grid_s);
        if (lead >= buckets) lead = buckets - 1;
        ++lax_stats_.lead_histogram[lead];
        if (!queue_.collected_live(ref)) continue;
        now_ = ref.time;
        ++executed_;
        ++lax_stats_.events_drained;
        ++ran;
        queue_.execute_collected(ref);
      }
      shard.clear();
    }
    // Bucket sweep: every delivery bucket whose instant is <= limit is
    // detached, then dispatched in time order, each at its own clock.
    if (frontier_ != nullptr) ran += frontier_->dispatch_window(limit);
  }
  return ran;
}

std::size_t Simulator::drain(SimTime horizon, std::size_t max_steps) {
  if (windowed()) return drain_lax(horizon, max_steps);
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
