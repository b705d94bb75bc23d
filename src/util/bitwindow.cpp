#include "util/bitwindow.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace continu::util {

namespace {
constexpr std::size_t kWordBits = 64;

[[nodiscard]] std::size_t words_for(std::size_t bits) noexcept {
  return (bits + kWordBits - 1) / kWordBits;
}

// C++17 stand-ins for the <bit> word operations (callers never pass 0
// to the count-zero helpers).
[[nodiscard]] int popcount64(std::uint64_t w) noexcept {
  return __builtin_popcountll(w);
}
[[nodiscard]] int countr_zero64(std::uint64_t w) noexcept {
  return __builtin_ctzll(w);
}
[[nodiscard]] int countl_zero64(std::uint64_t w) noexcept {
  return __builtin_clzll(w);
}
}  // namespace

BitWindow::BitWindow(std::size_t capacity, SegmentId head)
    : capacity_(capacity), head_(head), words_(words_for(capacity), 0) {
  if (capacity == 0) {
    throw std::invalid_argument("BitWindow capacity must be positive");
  }
}

bool BitWindow::covers(SegmentId id) const noexcept {
  return id >= head_ && id < end();
}

bool BitWindow::test(SegmentId id) const noexcept {
  if (!covers(id)) return false;
  const std::size_t off = offset_of(id);
  return (words_[off / kWordBits] >> (off % kWordBits)) & 1ULL;
}

bool BitWindow::set(SegmentId id) noexcept {
  if (!covers(id)) return false;
  const std::size_t off = offset_of(id);
  words_[off / kWordBits] |= (1ULL << (off % kWordBits));
  return true;
}

void BitWindow::reset(SegmentId id) noexcept {
  if (!covers(id)) return;
  const std::size_t off = offset_of(id);
  words_[off / kWordBits] &= ~(1ULL << (off % kWordBits));
}

void BitWindow::slide_to(SegmentId new_head) {
  if (new_head <= head_) return;
  const auto shift = static_cast<std::size_t>(new_head - head_);
  if (shift >= capacity_) {
    for (auto& w : words_) w = 0;
    head_ = new_head;
    return;
  }
  // Shift the whole bit image right by `shift` bits (dropping the front).
  const std::size_t word_shift = shift / kWordBits;
  const std::size_t bit_shift = shift % kWordBits;
  const std::size_t n = words_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = i + word_shift;
    std::uint64_t lo = (src < n) ? words_[src] : 0;
    std::uint64_t hi = (src + 1 < n) ? words_[src + 1] : 0;
    words_[i] = (bit_shift == 0) ? lo : ((lo >> bit_shift) | (hi << (kWordBits - bit_shift)));
  }
  head_ = new_head;
  // Mask out bits beyond capacity in the last word.
  const std::size_t tail_bits = capacity_ % kWordBits;
  if (tail_bits != 0) {
    words_.back() &= (1ULL << tail_bits) - 1;
  }
}

std::uint64_t BitWindow::word_at(SegmentId from) const noexcept {
  if (from >= end() || from + static_cast<SegmentId>(kWordBits) <= head_) return 0;
  if (from < head_) {
    // The head falls inside the word: window bit 0 lands on bit
    // head - from, in 1..63.
    return words_[0] << static_cast<unsigned>(head_ - from);
  }
  // Bits past capacity are kept clear, so the last word needs no mask.
  const std::size_t off = offset_of(from);
  const std::size_t wi = off / kWordBits;
  const std::size_t bit = off % kWordBits;
  std::uint64_t w = words_[wi] >> bit;
  if (bit != 0 && wi + 1 < words_.size()) w |= words_[wi + 1] << (kWordBits - bit);
  return w;
}

std::size_t BitWindow::count() const noexcept {
  std::size_t total = 0;
  for (const auto w : words_) total += static_cast<std::size_t>(popcount64(w));
  return total;
}

std::size_t BitWindow::count_below(SegmentId limit) const noexcept {
  if (limit <= head_) return 0;
  const SegmentId clipped = (limit < end()) ? limit : end();
  const auto bits = static_cast<std::size_t>(clipped - head_);
  std::size_t total = 0;
  const std::size_t full_words = bits / kWordBits;
  for (std::size_t i = 0; i < full_words; ++i) {
    total += static_cast<std::size_t>(popcount64(words_[i]));
  }
  const std::size_t rem = bits % kWordBits;
  if (rem != 0) {
    const std::uint64_t mask = (1ULL << rem) - 1;
    total += static_cast<std::size_t>(popcount64(words_[full_words] & mask));
  }
  return total;
}

void BitWindow::missing_in(SegmentId from, SegmentId to,
                           std::vector<SegmentId>& out) const {
  const SegmentId lo = (from > head_) ? from : head_;
  const SegmentId hi = (to < end()) ? to : end();
  for (SegmentId id = lo; id < hi; ++id) {
    if (!test(id)) out.push_back(id);
  }
}

std::vector<SegmentId> BitWindow::present() const {
  std::vector<SegmentId> out;
  out.reserve(count());
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(countr_zero64(w));
      out.push_back(head_ + static_cast<SegmentId>(wi * kWordBits + bit));
      w &= w - 1;
    }
  }
  return out;
}

std::optional<SegmentId> BitWindow::lowest() const noexcept {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      const auto bit = static_cast<std::size_t>(countr_zero64(words_[wi]));
      return head_ + static_cast<SegmentId>(wi * kWordBits + bit);
    }
  }
  return std::nullopt;
}

std::optional<SegmentId> BitWindow::highest() const noexcept {
  for (std::size_t wi = words_.size(); wi > 0; --wi) {
    const std::uint64_t w = words_[wi - 1];
    if (w != 0) {
      const auto bit = static_cast<std::size_t>(63 - countl_zero64(w));
      return head_ + static_cast<SegmentId>((wi - 1) * kWordBits + bit);
    }
  }
  return std::nullopt;
}

BitWindow BitWindow::from_words(std::size_t capacity, SegmentId head,
                                std::vector<std::uint64_t> words) {
  BitWindow bw(capacity, head);
  if (words.size() != bw.words_.size()) {
    throw std::invalid_argument("BitWindow::from_words: wrong word count");
  }
  bw.words_ = std::move(words);
  const std::size_t tail_bits = capacity % kWordBits;
  if (tail_bits != 0) {
    bw.words_.back() &= (1ULL << tail_bits) - 1;
  }
  return bw;
}

}  // namespace continu::util
