#include "net/bucket_ring.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace continu::net {

BucketRing::BucketRing(SimTime grid_s)
    : grid_s_(grid_s), inv_grid_s_(grid_s > 0.0 ? 1.0 / grid_s : 0.0), store_(grid_s > 0.0) {}

BucketRing::~BucketRing() {
  while (ring_entries_ != 0) {
    Batch batch = detach_slot(next_occupied(cur_));
    discard(batch);
  }
  while (!overflow_.empty()) {
    Batch batch = detach_overflow(overflow_.begin());
    discard(batch);
  }
}

bool BucketRing::append_overflow(SimTime when, std::uint32_t to, bool filtered,
                                 DeliveryAction&& action) {
  std::uint64_t k = 0;
  const bool ahead = on_grid(when, k) && k >= cur_;
  if (ahead && ring_entries_ == 0) {
    // Beyond the span of an empty ring: move the span up to it.
    advance(k);
    return append(when, to, filtered, std::move(action));
  }
  auto [it, inserted] = overflow_.try_emplace(when);
  if (inserted) {
    it->second.ahead = ahead;
    if (ahead) ++overflow_ahead_;
  }
  ::new (store_.append(it->second.list)) HandoffEntry{to, filtered, std::move(action)};
  return inserted;
}

bool BucketRing::earliest(SimTime& when) const {
  bool found = false;
  if (ring_entries_ != 0) {
    when = instant_of(next_occupied(cur_));
    found = true;
  }
  if (!overflow_.empty() && (!found || overflow_.begin()->first < when)) {
    when = overflow_.begin()->first;
    found = true;
  }
  return found;
}

BucketRing::Batch BucketRing::take(SimTime when) {
  std::uint64_t k = 0;
  if (ring_index(when, k) && store_.slot(k).count != 0) {
    Batch batch = detach_slot(k);
    // The cursor may move to k only when no ring instant lies before it
    // (always so on the exact engine, which takes in time order).
    if (k != cur_ && next_occupied(cur_) >= k) advance(k);
    return batch;
  }
  const auto it = overflow_.find(when);
  if (it == overflow_.end()) {
    std::fprintf(stderr, "net::BucketRing: no pending bucket at instant %.17g s\n", when);
    std::abort();
  }
  return detach_overflow(it);
}

void BucketRing::take_through(SimTime limit, std::vector<Batch>& out) {
  // Merge the ring's occupied slots and the overflow's front, both in
  // time order; an instant lives in only one of them.
  const std::uint64_t end = cur_ + kSlots;
  std::uint64_t k = ring_entries_ != 0 ? next_occupied(cur_) : end;
  std::uint64_t first = end;
  for (;;) {
    const bool ring_due = k < end && instant_of(k) <= limit;
    const bool over_due = !overflow_.empty() && overflow_.begin()->first <= limit;
    if (!ring_due && !over_due) break;
    if (ring_due && (!over_due || instant_of(k) < overflow_.begin()->first)) {
      if (first == end) first = k;
      out.push_back(detach_slot(k));
      k = next_occupied(k + 1);
    } else {
      out.push_back(detach_overflow(overflow_.begin()));
    }
  }
  if (first != end && first != cur_) advance(first);
}

std::size_t BucketRing::capacity_bytes() const noexcept {
  // A map node: the entry plus the red-black tree's four header words.
  constexpr std::size_t kNodeBytes = sizeof(std::pair<const SimTime, Overflow>) + 32;
  return store_.capacity_bytes() + overflow_.size() * kNodeBytes;
}

BucketRing::Batch BucketRing::detach_overflow(
    std::map<SimTime, Overflow>::iterator it) noexcept {
  const Batch batch{it->first, it->second.list};
  if (it->second.ahead) --overflow_ahead_;
  overflow_.erase(it);
  return batch;
}

BucketRing::Batch BucketRing::detach_slot(std::uint64_t k) noexcept {
  Store::List& list = store_.slot(k);
  const Batch batch{instant_of(k), list};
  ring_entries_ -= list.count;
  list = Store::List{};
  store_.unmark(k);
  return batch;
}

void BucketRing::advance(std::uint64_t k) {
  cur_ = k;
  if (overflow_ahead_ == 0) return;
  // Instants filed beyond the span that now fall inside it move into
  // their (necessarily empty) slots, chunks and all.
  auto it = overflow_.lower_bound(instant_of(cur_));
  while (it != overflow_.end() && overflow_ahead_ != 0) {
    std::uint64_t index = 0;
    if (!it->second.ahead) {
      ++it;
      continue;
    }
    (void)on_grid(it->first, index);
    if (index - cur_ >= kSlots) break;
    store_.slot(index) = it->second.list;
    store_.mark(index);
    ring_entries_ += it->second.list.count;
    --overflow_ahead_;
    it = overflow_.erase(it);
  }
}

}  // namespace continu::net
