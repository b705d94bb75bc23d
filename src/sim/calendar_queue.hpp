#pragma once
// CalendarQueue — the event queue's (time, key) order: a ring of
// 2^-10 s buckets covering the next second, fronted by a small heap.
//
//   near   a QuadHeap of every entry before the current bucket's end;
//          its top is the queue's top.
//   ring   buckets (cur, cur + kRingBuckets]: entries are appended
//          unsorted to 128-byte chunks, and an occupancy bitmap finds
//          the next non-empty bucket (a util::ChunkRing; the chunk pool
//          is described once, in util/block_pool.hpp).
//   far    a QuadHeap of every entry beyond the ring; entries migrate
//          into the ring as the cursor advances.
//
// When near empties, the cursor moves to the next non-empty bucket and
// that bucket's entries are pushed into near; with the ring empty it
// jumps to the head of far. A push lands in near, the ring or far by
// comparing its time image against the current bucket's end and the
// ring's end, so most pushes cost one chunk append and a pop walks a
// heap of one bucket's entries instead of every pending one.
//
// Exactness: the bucket of time t is floor(t * 1024). The width is a
// power of two, so the product is exact, the bucket index is monotone
// in t, and equal times share a bucket; every near entry precedes every
// ring entry, which precedes every far entry, in (time, key) order. The
// pop sequence is therefore exactly QuadHeap's ordering contract
// (sim/quad_heap.hpp), -0.0, infinities and negative times included.
// Only times in [0, kMaxBucketedTime) are ever bucketed: when the
// cursor would have to seat on anything else (a negative, huge or
// infinite head of far), the calendar folds everything into near and
// runs as one heap until it empties. An empty calendar has no cursor;
// the next push seats it.

#include <cstddef>
#include <cstdint>
#include <new>

#include "sim/quad_heap.hpp"
#include "util/block_pool.hpp"
#include "util/types.hpp"

namespace continu::sim {

class CalendarQueue {
 public:
  struct Entry {
    SimTime time;
    std::uint64_t key;
  };

  /// Bucket width 2^-10 s and one second of buckets, sized from the
  /// exact engine's delay mix: of 3.96 M schedules in a seed-42
  /// `exact_8k` run, none was due under 1 ms ahead, 17% 1–10 ms, 48%
  /// 10–100 ms, 34% 0.1–1 s and 1% 1–10 s. A bucket then holds about a
  /// millisecond of events (on `exact_8k` a near heap of ~270 entries,
  /// 4 KiB), and ~1% of schedules go to far.
  static constexpr std::uint64_t kBucketsPerSecond = 1024;
  static constexpr std::uint64_t kRingBuckets = 1024;

  /// Entries per ring chunk: two cache lines. Every non-empty bucket
  /// holds one partly filled chunk, and the buckets late in the ring
  /// hold only a few entries each, so small chunks keep the pool within
  /// a few percent of 16 bytes per pending entry.
  static constexpr std::uint32_t kChunkEntries = 8;
  /// 64-byte-aligned chunks in 256-chunk pool blocks (32 KiB of
  /// entries).
  using Ring = util::ChunkRing<QuadHeap::Entry, kChunkEntries, 64, 8, kRingBuckets>;

  CalendarQueue() = default;
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  [[nodiscard]] bool empty() const noexcept { return near_.empty(); }

  /// Earliest (time, key) entry. Requires !empty().
  [[nodiscard]] Entry top() const noexcept {
    const QuadHeap::Entry& head = near_.top();
    return Entry{image_time(head.image), head.key};
  }

  void push(SimTime time, std::uint64_t key) {
    const QuadHeap::Entry entry{time_image(time), key};
    if (entry.image < near_end_) {
      near_.push(entry);
    } else if (entry.image < ring_end_) {
      ring_append(entry, bucket_of(time));
    } else {
      far_.push(entry);
      if (near_.empty()) refill();  // was empty: seat the cursor
    }
  }

  /// Removes the earliest entry. Requires !empty().
  void pop() {
    near_.pop();
    if (near_.empty()) refill();
  }

  /// Bytes held: the ring's bucket heads, bitmap and chunk pool, and
  /// both heaps' entry arrays.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return ring_.capacity_bytes() + near_.capacity_bytes() + far_.capacity_bytes();
  }

 private:
  /// Times at or beyond this never enter the ring (2^40 s keeps every
  /// bucket boundary an exact double).
  static constexpr SimTime kMaxBucketedTime = 0x1p40;
  [[nodiscard]] static std::uint64_t bucket_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t * static_cast<SimTime>(kBucketsPerSecond));
  }

  void ring_append(const QuadHeap::Entry& entry, std::uint64_t bucket) {
    Ring::List& list = ring_.slot(bucket);
    if (list.count == 0) ring_.mark(bucket);
    ::new (ring_.append(list)) QuadHeap::Entry(entry);
    ++ring_size_;
  }

  /// Near is empty: moves the cursor to the next non-empty bucket (or
  /// to the head of far, or unseats it when nothing is left) and fills
  /// near from it.
  void refill();
  /// Seats the cursor on the bucket of `image`, or folds the calendar
  /// into near when that time cannot be bucketed.
  void seat(std::uint64_t image);
  void set_bounds(std::uint64_t bucket) noexcept;
  /// Moves far's entries that now fall before the ring's end.
  void migrate_far();

  QuadHeap near_;
  QuadHeap far_;
  /// Time images bounding near and the ring: an entry goes to near when
  /// its image is below near_end_, else to the ring when below
  /// ring_end_, else to far. Both 0 (everything to far) while the
  /// calendar is empty; both ~0 (everything to near) while it runs as
  /// one heap.
  std::uint64_t near_end_ = 0;
  std::uint64_t ring_end_ = 0;
  std::uint64_t cur_ = 0;  ///< absolute index of the current bucket
  std::size_t ring_size_ = 0;
  Ring ring_;
};

}  // namespace continu::sim
