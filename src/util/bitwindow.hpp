#pragma once
// Sliding window of presence bits over consecutive segment ids.
//
// This is the in-memory representation behind both the stream buffer's
// availability set and the 620-bit buffer-map wire format (600 window
// bits + 20-bit head id, Section 5.4.2). The window covers
// [head, head + capacity) and slides forward monotonically.

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace continu::util {

class BitWindow {
 public:
  /// Window of `capacity` bits starting (empty) at segment id `head`.
  explicit BitWindow(std::size_t capacity, SegmentId head = 0);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] SegmentId head() const noexcept { return head_; }
  /// One past the last id covered by the window.
  [[nodiscard]] SegmentId end() const noexcept {
    return head_ + static_cast<SegmentId>(capacity_);
  }

  /// True iff id lies in [head, end).
  [[nodiscard]] bool covers(SegmentId id) const noexcept;

  /// Presence bit for id; ids outside the window read as absent.
  [[nodiscard]] bool test(SegmentId id) const noexcept;

  /// Sets the presence bit. Returns false (no-op) if id is outside the
  /// window — the caller decides whether to slide first.
  bool set(SegmentId id) noexcept;

  /// Clears the presence bit if covered.
  void reset(SegmentId id) noexcept;

  /// Slides the window head forward to `new_head` (>= head), dropping
  /// bits that fall off the front. FIFO replacement in the paper's terms.
  void slide_to(SegmentId new_head);

  /// Presence bits of [from, from + 64) as one word: bit b is id
  /// from + b. Ids outside the window read as absent, so `from` may lie
  /// before the head or past the end.
  [[nodiscard]] std::uint64_t word_at(SegmentId from) const noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// Number of set bits with id < limit (ids below head count as absent).
  [[nodiscard]] std::size_t count_below(SegmentId limit) const noexcept;

  /// Appends the ids of all clear bits in [from, to), clipped to the
  /// window, to `out` (the caller clears it; hot paths reuse one).
  void missing_in(SegmentId from, SegmentId to, std::vector<SegmentId>& out) const;

  /// Ids of all set bits in the window, ascending.
  [[nodiscard]] std::vector<SegmentId> present() const;

  /// Smallest set id, if any (O(capacity/64)).
  [[nodiscard]] std::optional<SegmentId> lowest() const noexcept;

  /// Largest set id, if any (O(capacity/64)).
  [[nodiscard]] std::optional<SegmentId> highest() const noexcept;

  /// Raw words for wire encoding (bit b of word w = id head + 64w + b).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Rebuilds the window from a decoded wire image.
  static BitWindow from_words(std::size_t capacity, SegmentId head,
                              std::vector<std::uint64_t> words);

  /// Estimated heap footprint (capacity, not live bits) — memory
  /// sizing for large sessions.
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  [[nodiscard]] std::size_t offset_of(SegmentId id) const noexcept {
    return static_cast<std::size_t>(id - head_);
  }

  std::size_t capacity_;
  SegmentId head_;
  std::vector<std::uint64_t> words_;
};

}  // namespace continu::util
