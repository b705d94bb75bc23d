#pragma once
// QuadHeap — the engine's one (time, key) priority queue: a 4-ary
// implicit min-heap of 16-byte entries with branch-free child
// selection. EventQueue orders its pending events with it.
//
// Entries store the time as an order-preserving 64-bit image of the
// double, so (time, key) compares as one unsigned 128-bit integer —
// a cmp/sbb pair, no branch. Popping walks the hole from the root to a
// leaf along the smallest child of each group of four (two pairwise
// compares, then one between the winners, all folded into index
// arithmetic), then sifts the displaced last entry back up; it almost
// always settles within a level, because it came from the bottom.
// Three sentinel entries (all-ones, greater than every real entry)
// always follow the live range, so the walk reads whole child groups
// without bounds checks, including the partial last group.
//
// Ordering contract: exactly the order of `(a.time < b.time) ||
// (a.time == b.time && a.key < b.key)` for every non-NaN time,
// negative times and infinities included. -0.0 and +0.0 are one
// instant (the image normalises with `t + 0.0`), and top() reports
// that instant as +0.0. NaN is not a valid time. Keys must be unique,
// so the pop sequence is a strict total order and does not depend on
// the heap's internal layout.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/types.hpp"

namespace continu::sim {

class QuadHeap {
 public:
  struct Entry {
    SimTime time;
    std::uint64_t key;
  };

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Earliest (time, key) entry. Requires !empty().
  [[nodiscard]] Entry top() const noexcept {
    return Entry{decode(nodes_[0].time), nodes_[0].key};
  }

  void push(SimTime time, std::uint64_t key) {
    // One sentinel per new entry (four for the first): the array grows
    // like push_back, touching only pages the heap has used.
    while (nodes_.size() < size_ + 1 + kPad) nodes_.push_back(kSentinel);
    const Node node{encode(time), key};
    std::size_t hole = size_++;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (!less(node, nodes_[parent])) break;
      nodes_[hole] = nodes_[parent];
      hole = parent;
    }
    nodes_[hole] = node;
  }

  /// Removes the earliest entry. Requires !empty().
  void pop() noexcept {
    const Node last = nodes_[--size_];
    nodes_[size_] = kSentinel;
    if (size_ == 0) return;
    Node* const n = nodes_.data();
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
    return nodes_.capacity() * sizeof(Node);
  }

 private:
  __extension__ typedef unsigned __int128 Packed;

  struct Node {
    std::uint64_t time;  ///< order-preserving image of the SimTime
    std::uint64_t key;
  };
  static_assert(sizeof(Node) == 16, "heap entries are 16 bytes");

  /// Sentinels past the live range: a child group starting at the last
  /// live index reaches three entries beyond it.
  static constexpr std::size_t kPad = 3;
  static constexpr Node kSentinel{~std::uint64_t{0}, ~std::uint64_t{0}};
  static constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

  [[nodiscard]] static bool less(const Node& a, const Node& b) noexcept {
    return ((Packed{a.time} << 64) | a.key) < ((Packed{b.time} << 64) | b.key);
  }

  /// Flips the sign bit of non-negative doubles and every bit of
  /// negative ones, which makes unsigned integer order match numeric
  /// order.
  [[nodiscard]] static std::uint64_t encode(SimTime t) noexcept {
    const SimTime normalised = t + 0.0;  // -0.0 becomes +0.0
    std::uint64_t bits;
    std::memcpy(&bits, &normalised, sizeof bits);
    const auto negative = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(bits) >> 63);
    return bits ^ (negative | kSign);
  }

  [[nodiscard]] static SimTime decode(std::uint64_t image) noexcept {
    const auto was_negative = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(~image) >> 63);
    const std::uint64_t bits = image ^ (was_negative | kSign);
    SimTime t;
    std::memcpy(&t, &bits, sizeof t);
    return t;
  }

  std::vector<Node> nodes_;  ///< [0, size_) heap, then sentinels only
  std::size_t size_ = 0;
};

}  // namespace continu::sim
