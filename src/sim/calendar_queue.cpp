#include "sim/calendar_queue.hpp"

#include <stdexcept>

namespace continu::sim {

std::size_t CalendarQueue::capacity_bytes() const noexcept {
  return sizeof(ring_) + sizeof(occupied_) +
         blocks_.capacity() * sizeof(blocks_[0]) + blocks_.size() * sizeof(Block) +
         near_.capacity_bytes() + far_.capacity_bytes();
}

void CalendarQueue::refill() {
  if (ring_size_ != 0) {
    cur_ = next_occupied();
    set_bounds(cur_);
    drain_slot(cur_ & kRingMask);
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

std::uint64_t CalendarQueue::next_occupied() const noexcept {
  const std::uint64_t from = (cur_ + 1) & kRingMask;
  std::size_t word = from >> 6;
  // The first word is read from `from` upwards; after one lap its low
  // bits (the ring's last buckets) count too.
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    word = (word + 1) & (kRingWords - 1);
    bits = occupied_[word];
  }
  const std::uint64_t slot = word * 64 + static_cast<std::uint64_t>(__builtin_ctzll(bits));
  return cur_ + 1 + ((slot - from) & kRingMask);
}

void CalendarQueue::drain_slot(std::size_t slot) {
  Bucket& b = ring_[slot];
  std::uint32_t left = b.count;
  ring_size_ -= left;
  occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  std::uint32_t c = b.head;
  std::uint32_t fill = ((left - 1) & (kChunkEntries - 1)) + 1;
  for (;;) {
    const Chunk& chunk = chunk_at(c);
    std::uint32_t& link = next_of(c);
    const std::uint32_t next = link;
    if (next != kNoChunk && left > fill) {
      // The older chunks were written up to a second ago: start their
      // lines now, while this one is pushed.
      const char* line = reinterpret_cast<const char*>(&chunk_at(next));
      for (std::size_t k = 0; k < sizeof(Chunk); k += 64) __builtin_prefetch(line + k);
    }
    for (std::uint32_t i = 0; i < fill; ++i) near_.push(chunk.entries[i]);
    left -= fill;
    link = free_chunk_;
    free_chunk_ = c;
    if (left == 0) break;
    c = next;
    fill = kChunkEntries;
  }
  b.head = kNoChunk;
  b.count = 0;
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

std::uint32_t CalendarQueue::grow_pool() {
  if (chunk_count_ == kNoChunk) {
    throw std::length_error("CalendarQueue: ring chunk pool exhausted");
  }
  if ((chunk_count_ & (kChunksPerBlock - 1)) == 0) {
    // Default-initialised: pages are first touched when used.
    blocks_.push_back(std::unique_ptr<Block>(new Block));
  }
  return chunk_count_++;
}

}  // namespace continu::sim
