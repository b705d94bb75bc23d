#pragma once
// QuadHeap — a 4-ary implicit min-heap of 16-byte (time image, key)
// entries with branch-free child selection. It is the near and far part
// of the event calendar (sim/calendar_queue.hpp): "near" orders the
// events of the calendar's current 2^-10 s bucket, "far" the events
// more than a second ahead.
//
// Entries store the time as an order-preserving 64-bit image of the
// double (time_image below), so (time, key) compares as one unsigned
// 128-bit integer — a cmp/sbb pair, no branch. Four children per node
// halve the depth of a binary heap, and popping walks the hole from the
// root to a leaf along the smallest child of each group of four (two
// pairwise compares, then one between the winners, all folded into
// index arithmetic), so a pop costs no mispredicted branches on its way
// down; it then sifts the displaced last entry back up, which almost
// always settles within a level, because it came from the bottom.
// Three sentinel entries (all-ones, greater than every real entry)
// always follow the live range, so the walk reads whole child groups
// without bounds checks, including the partial last group.
// BM_EventQueueHold is the row this design was judged by;
// docs/BENCHMARKS.md holds its table against a binary heap.
//
// Ordering contract: exactly the order of `(a.time < b.time) ||
// (a.time == b.time && a.key < b.key)` for every non-NaN time,
// negative times and infinities included. -0.0 and +0.0 are one
// instant (the image normalises with `t + 0.0`), and image_time()
// reports that instant as +0.0. NaN is not a valid time. Keys must be
// unique, so the pop sequence is a strict total order and does not
// depend on the heap's internal layout.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/types.hpp"

namespace continu::sim {

/// Order-preserving image of a SimTime: flips the sign bit of
/// non-negative doubles and every bit of negative ones, which makes
/// unsigned integer order match numeric order. -0.0 maps to +0.0's
/// image; every non-NaN image lies strictly between 0 and ~0.
[[nodiscard]] inline std::uint64_t time_image(SimTime t) noexcept {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const SimTime normalised = t + 0.0;  // -0.0 becomes +0.0
  std::uint64_t bits;
  std::memcpy(&bits, &normalised, sizeof bits);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | kSign);
}

/// Inverse of time_image.
[[nodiscard]] inline SimTime image_time(std::uint64_t image) noexcept {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto was_negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(~image) >> 63);
  const std::uint64_t bits = image ^ (was_negative | kSign);
  SimTime t;
  std::memcpy(&t, &bits, sizeof t);
  return t;
}

class QuadHeap {
 public:
  struct Entry {
    std::uint64_t image;  ///< time_image() of the entry's SimTime
    std::uint64_t key;
  };
  static_assert(sizeof(Entry) == 16, "heap entries are 16 bytes");

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Earliest (time, key) entry. Requires !empty().
  [[nodiscard]] const Entry& top() const noexcept { return nodes_[0]; }

  void push(const Entry& entry) {
    // One sentinel per new entry (four for the first), touching only
    // entries the heap has used. The array grows by half, not double:
    // recycled allocator pages are resident whether or not the heap
    // uses them, so spare capacity costs memory.
    if (nodes_.size() < size_ + 1 + kPad && nodes_.size() == nodes_.capacity()) {
      nodes_.reserve(nodes_.capacity() + nodes_.capacity() / 2 + 1 + kPad);
    }
    while (nodes_.size() < size_ + 1 + kPad) nodes_.push_back(kSentinel);
    std::size_t hole = size_++;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (!less(entry, nodes_[parent])) break;
      nodes_[hole] = nodes_[parent];
      hole = parent;
    }
    nodes_[hole] = entry;
  }

  /// Removes the earliest entry. Requires !empty().
  void pop() noexcept {
    const Entry last = nodes_[--size_];
    nodes_[size_] = kSentinel;
    if (size_ == 0) return;
    Entry* const n = nodes_.data();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < size_; child = 4 * hole + 1) {
      const std::size_t a = child + less(n[child + 1], n[child]);
      const std::size_t b = child + 2 + less(n[child + 3], n[child + 2]);
      // min(a, b) by mask, not by branch: the winner is unpredictable.
      const std::size_t pick_b = std::size_t{0} - std::size_t{less(n[b], n[a])};
      const std::size_t m = a ^ ((a ^ b) & pick_b);
      n[hole] = n[m];
      hole = m;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (!less(last, n[parent])) break;
      n[hole] = n[parent];
      hole = parent;
    }
    n[hole] = last;
  }

  /// Bytes held by the entry array (capacity, not size: the array
  /// keeps its high-water mark).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Entry);
  }

 private:
  __extension__ typedef unsigned __int128 Packed;

  /// Sentinels past the live range: a child group starting at the last
  /// live index reaches three entries beyond it.
  static constexpr std::size_t kPad = 3;
  static constexpr Entry kSentinel{~std::uint64_t{0}, ~std::uint64_t{0}};

  [[nodiscard]] static bool less(const Entry& a, const Entry& b) noexcept {
    return ((Packed{a.image} << 64) | a.key) < ((Packed{b.image} << 64) | b.key);
  }

  std::vector<Entry> nodes_;  ///< [0, size_) heap, then sentinels only
  std::size_t size_ = 0;
};

}  // namespace continu::sim
