#include "sim/sharded_queue.hpp"

namespace continu::sim {

ShardedEventQueue::ShardedEventQueue(unsigned skew_buckets)
    : shards_(kShards),
      window_(kShards),
      lax_lead_hist_(static_cast<std::size_t>(skew_buckets) + 1, 0) {}

std::size_t ShardedEventQueue::approx_bytes() const noexcept {
  std::size_t bytes = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    bytes += shards_[s].approx_bytes() +
             window_[s].capacity() * sizeof(EventQueue::WindowRef);
  }
  return bytes;
}

bool ShardedEventQueue::cancel(EventId id) noexcept {
  if (id == kInvalidEvent) return false;
  const std::uint32_t shard = shard_of_id(id);
  if (!shards_[shard].cancel(id)) return false;
  --live_;
  return true;
}

void ShardedEventQueue::collect_window(std::uint32_t shard, SimTime limit) {
  shards_[shard].collect_window(limit, window_[shard]);
}

void ShardedEventQueue::finish_window(SimTime anchor, SimTime grid_s) {
  ++lax_windows_;
  const std::size_t buckets = lax_lead_hist_.size();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (window_[s].empty()) {
      ++lax_stalled_shards_;
    } else if (grid_s > 0.0) {
      for (const EventQueue::WindowRef& ref : window_[s]) {
        std::size_t lead =
            static_cast<std::size_t>((ref.time - anchor) / grid_s);
        if (lead >= buckets) lead = buckets - 1;
        ++lax_lead_hist_[lead];
      }
    }
  }
}

bool ShardedEventQueue::next_time(SimTime& time) const {
  bool found = false;
  for (const EventQueue& shard : shards_) {
    SimTime head = 0.0;
    EventId id = kInvalidEvent;
    if (!shard.peek(head, id)) continue;
    if (!found || head < time) time = head;
    found = true;
  }
  return found;
}

}  // namespace continu::sim
