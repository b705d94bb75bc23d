#pragma once
// CalendarQueue — the event queue's (time, key) order: a ring of
// 2^-10 s buckets covering the next second, fronted by a small heap.
//
//   near   a QuadHeap of every entry before the current bucket's end;
//          its top is the queue's top.
//   ring   buckets (cur, cur + kRingBuckets]: entries are appended
//          unsorted to fixed-size chunks drawn from one pooled free
//          list, and an occupancy bitmap finds the next non-empty
//          bucket.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/quad_heap.hpp"
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

  /// Bytes held: the ring's bucket heads and bitmap, the chunk pool
  /// (blocks are never freed) and both heaps' entry arrays.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

 private:
  /// Entries per ring chunk: two cache lines. Every non-empty bucket
  /// holds one partly filled chunk, and the buckets late in the ring
  /// hold only a few entries each, so small chunks keep the pool within
  /// a few percent of 16 bytes per pending entry.
  static constexpr std::uint32_t kChunkEntries = 8;
  /// Times at or beyond this never enter the ring (2^40 s keeps every
  /// bucket boundary an exact double).
  static constexpr SimTime kMaxBucketedTime = 0x1p40;
  static constexpr std::uint64_t kRingMask = kRingBuckets - 1;
  static constexpr std::size_t kRingWords = kRingBuckets / 64;
  static_assert((kRingBuckets & kRingMask) == 0 && kRingBuckets >= 64,
                "the ring is a power of two of whole bitmap words");
  /// Chunks per pool block: 32 KiB of entries. Blocks never move, and
  /// their pages are first touched when a chunk in them is first used.
  static constexpr std::uint32_t kBlockShift = 8;
  static constexpr std::uint32_t kChunksPerBlock = std::uint32_t{1} << kBlockShift;
  static constexpr std::uint32_t kNoChunk = ~std::uint32_t{0};

  static_assert((kChunkEntries & (kChunkEntries - 1)) == 0,
                "chunk fill is count modulo a power of two");

  struct alignas(64) Chunk {
    QuadHeap::Entry entries[kChunkEntries];
  };
  struct Block {
    Chunk chunks[kChunksPerBlock];
    /// Per chunk: the next chunk of its bucket (older entries), or of
    /// the free list.
    std::uint32_t next[kChunksPerBlock];
  };
  /// A bucket's chunks, newest first; only the head chunk is partly
  /// filled, with `count` modulo kChunkEntries entries (0 = full).
  struct Bucket {
    std::uint32_t head = kNoChunk;
    std::uint32_t count = 0;
  };

  [[nodiscard]] static std::uint64_t bucket_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t * static_cast<SimTime>(kBucketsPerSecond));
  }

  [[nodiscard]] Chunk& chunk_at(std::uint32_t c) noexcept {
    return blocks_[c >> kBlockShift]->chunks[c & (kChunksPerBlock - 1)];
  }
  [[nodiscard]] std::uint32_t& next_of(std::uint32_t c) noexcept {
    return blocks_[c >> kBlockShift]->next[c & (kChunksPerBlock - 1)];
  }

  void ring_append(const QuadHeap::Entry& entry, std::uint64_t bucket) {
    const std::size_t slot = bucket & kRingMask;
    Bucket& b = ring_[slot];
    const std::uint32_t fill = b.count & (kChunkEntries - 1);
    if (fill == 0) {
      std::uint32_t c = free_chunk_;
      if (c != kNoChunk) {
        free_chunk_ = next_of(c);
      } else {
        c = grow_pool();
      }
      next_of(c) = b.head;
      b.head = c;
      occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    chunk_at(b.head).entries[fill] = entry;
    ++b.count;
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
  /// First non-empty bucket after the cursor. Requires ring_size_ > 0.
  [[nodiscard]] std::uint64_t next_occupied() const noexcept;
  /// Moves every entry of ring slot `slot` into near.
  void drain_slot(std::size_t slot);
  /// Moves far's entries that now fall before the ring's end.
  void migrate_far();
  [[nodiscard]] std::uint32_t grow_pool();

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
  std::array<Bucket, kRingBuckets> ring_{};
  std::array<std::uint64_t, kRingWords> occupied_{};
  std::vector<std::unique_ptr<Block>> blocks_;
  std::uint32_t free_chunk_ = kNoChunk;
  std::uint32_t chunk_count_ = 0;
};

}  // namespace continu::sim
