#pragma once
// Modular arithmetic on the DHT identifier ring [0, N).
//
// The ContinuStreaming DHT orients the ring clockwise in increasing ID
// order (mod N): node n's level-i peer lies in [n + 2^(i-1), n + 2^i).
// All helpers are header-only and constexpr-friendly: they sit on the
// hot path of routing and backup-responsibility checks.

#include <cassert>
#include <cstdint>

#include "util/types.hpp"

namespace continu::util {

/// Clockwise distance from `from` to `to` on a ring of size `n`:
/// the number of steps walking in increasing-ID direction.
[[nodiscard]] constexpr std::uint64_t clockwise_distance(std::uint64_t from,
                                                         std::uint64_t to,
                                                         std::uint64_t n) noexcept {
  return (to >= from) ? (to - from) : (n - from + to);
}

/// Counter-clockwise distance from `from` to `to` on a ring of size `n`.
[[nodiscard]] constexpr std::uint64_t counter_clockwise_distance(
    std::uint64_t from, std::uint64_t to, std::uint64_t n) noexcept {
  return clockwise_distance(to, from, n);
}

/// True iff `x` lies in the clockwise half-open arc [lo, hi) on a ring of
/// size `n`. An arc with lo == hi is interpreted as the full ring, which
/// is what backup responsibility needs when a node is its own closest peer.
[[nodiscard]] constexpr bool in_clockwise_arc(std::uint64_t x, std::uint64_t lo,
                                              std::uint64_t hi,
                                              std::uint64_t n) noexcept {
  if (lo == hi) return true;
  return clockwise_distance(lo, x, n) < clockwise_distance(lo, hi, n);
}

/// (a + b) mod n with no overflow for a, b < n <= 2^63.
[[nodiscard]] constexpr std::uint64_t ring_add(std::uint64_t a, std::uint64_t b,
                                               std::uint64_t n) noexcept {
  const std::uint64_t s = a + b;
  return (s >= n) ? s - n : s;
}

/// (a - b) mod n.
[[nodiscard]] constexpr std::uint64_t ring_sub(std::uint64_t a, std::uint64_t b,
                                               std::uint64_t n) noexcept {
  return (a >= b) ? (a - b) : (n - b + a);
}

/// floor(log2(n)) for n >= 1 (0 for n == 0).
[[nodiscard]] constexpr unsigned floor_log2(std::uint64_t n) noexcept {
  return n == 0 ? 0 : 63U - static_cast<unsigned>(__builtin_clzll(n));
}

/// Number of DHT peer levels for an ID space of size n (n a power of two
/// in the paper's setting): log2(n).
[[nodiscard]] constexpr unsigned dht_levels(std::uint64_t id_space) noexcept {
  return floor_log2(id_space);
}

/// True iff v is a power of two (the paper's ID spaces are 2^m).
[[nodiscard]] constexpr bool is_power_of_two(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace continu::util
