#pragma once
// Deterministic pseudo-random number generation for reproducible simulation.
//
// The simulator must produce identical runs for identical seeds across
// platforms, so we avoid std::default_random_engine / std::uniform_*
// distributions (whose algorithms are implementation-defined) and ship a
// self-contained xoshiro256** generator with explicit sampling routines.

#include <array>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace continu::util {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 — fast, high-quality, deterministic across platforms.
class Rng {
 public:
  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Derives the per-tick RNG stream for (session seed, tick time,
  /// participant key) — the parallel engine's replacement for drawing
  /// from a shared session generator inside node rounds. The mapping is
  /// a pure SplitMix64 chain over the three inputs (the time enters by
  /// bit pattern, so any representable SimTime is a distinct input):
  /// stable across platforms and thread counts, and decorrelated
  /// between adjacent ticks, nodes and seeds. Two calls with the same
  /// triple always yield identical streams.
  [[nodiscard]] static Rng for_tick(std::uint64_t seed, double tick_time,
                                    std::uint64_t key) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double next_range(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool next_bool(double p) noexcept;

  /// Exponentially distributed value with the given rate (mean 1/rate).
  [[nodiscard]] double next_exponential(double rate) noexcept;

  /// Pareto-distributed value with scale x_m > 0 and shape alpha > 0.
  /// Heavy-tailed; used for trace degree/ping synthesis.
  [[nodiscard]] double next_pareto(double x_m, double alpha) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    shuffle(v.data(), v.size());
  }

  /// Fisher-Yates shuffle of the n elements at `first`, in place: the
  /// same draws and swaps as shuffling a vector of them.
  template <typename T>
  void shuffle(T* first, std::size_t n) noexcept {
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k > n yields all of them).
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derives an independent child generator (stable given call order).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace continu::util
