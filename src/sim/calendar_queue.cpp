#include "sim/calendar_queue.hpp"

namespace continu::sim {

void CalendarQueue::refill() {
  if (ring_size_ != 0) {
    cur_ = ring_.next_occupied(cur_ + 1, cur_ + 1 + kRingBuckets);
    set_bounds(cur_);
    Ring::List& bucket = ring_.slot(cur_);
    ring_size_ -= bucket.count;
    ring_.unmark(cur_);
    ring_.drain(bucket, [this](const QuadHeap::Entry* entries, std::uint32_t n) {
      for (std::uint32_t i = 0; i < n; ++i) near_.push(entries[i]);
    });
  } else if (!far_.empty()) {
    seat(far_.top().image);
  } else {
    near_end_ = 0;  // empty: the next push goes to far and seats
    ring_end_ = 0;
    return;
  }
  migrate_far();
}

void CalendarQueue::seat(std::uint64_t image) {
  const SimTime t = image_time(image);
  if (t >= 0.0 && t < kMaxBucketedTime) {
    cur_ = bucket_of(t);
    set_bounds(cur_);
  } else {
    near_end_ = ~std::uint64_t{0};  // one heap: every time goes to near
    ring_end_ = ~std::uint64_t{0};
  }
}

void CalendarQueue::set_bounds(std::uint64_t bucket) noexcept {
  constexpr SimTime kWidth = 1.0 / static_cast<SimTime>(kBucketsPerSecond);
  near_end_ = time_image(static_cast<SimTime>(bucket + 1) * kWidth);
  ring_end_ = time_image(static_cast<SimTime>(bucket + 1 + kRingBuckets) * kWidth);
}

void CalendarQueue::migrate_far() {
  while (!far_.empty() && far_.top().image < ring_end_) {
    const QuadHeap::Entry entry = far_.top();
    far_.pop();
    if (entry.image < near_end_) {
      near_.push(entry);
    } else {
      ring_append(entry, bucket_of(image_time(entry.image)));
    }
  }
}

}  // namespace continu::sim
