#pragma once
// Pairwise latency model (paper Section 5.2): the physical latency
// between two overlay nodes is the difference between their real-trace
// ping times from a central node, clamped below by a small floor.
//
// Quantized mode: a positive grid (1-5 ms in practice) snaps every
// one-way latency UP to the next grid point. Co-instant deliveries
// then exist by construction — the Network batches every delivery
// landing on one grid point and shards the batch by receiver — whereas
// the continuous model guarantees no two deliveries ever share an
// instant (so per-event delivery cannot fork). Snapping up, never
// down, keeps every quantized latency >= its continuous value: the
// grid adds delay, it never invents capacity.

#include <algorithm>
#include <cmath>
#include <vector>

#include "trace/trace.hpp"
#include "util/types.hpp"

namespace continu::net {

class LatencyModel {
 public:
  /// Builds from per-node ping times (milliseconds). grid_ms == 0
  /// selects the paper's continuous model; grid_ms > 0 quantizes.
  explicit LatencyModel(std::vector<double> ping_ms, double floor_ms = 5.0,
                        double grid_ms = 0.0);

  /// Builds directly from a trace snapshot.
  [[nodiscard]] static LatencyModel from_trace(const trace::TraceSnapshot& snapshot,
                                               double floor_ms = 5.0,
                                               double grid_ms = 0.0);

  /// One-way latency in seconds between two nodes (by dense index).
  [[nodiscard]] SimTime latency_s(std::size_t a, std::size_t b) const {
    return latency_ms(a, b) / 1000.0;
  }

  /// One-way latency in milliseconds (grid-snapped in quantized mode).
  /// Indices are not range-checked: every caller passes a session index.
  [[nodiscard]] double latency_ms(std::size_t a, std::size_t b) const {
    const double diff = std::abs(ping_ms_[a] - ping_ms_[b]);
    return quantize_up_ms(std::max(diff, floor_ms_));
  }

  /// Round-trip time in seconds (2x one-way; the join probe estimates
  /// latency as RTT/2, which by construction recovers latency_s — and
  /// in quantized mode 2x an on-grid value stays on-grid).
  [[nodiscard]] SimTime rtt_s(std::size_t a, std::size_t b) const;

  /// Average one-way latency over distinct pairs — the t_hop estimate
  /// used to seed the urgent ratio alpha (eq. 7). Exact for n <= 512;
  /// beyond that a fixed-size deterministic pair sample (SplitMix64-
  /// seeded, reseeded per n) keeps it O(1). The sample visits pairs
  /// uniformly — unlike the old stride-lattice sweep, whose estimate
  /// collapsed onto a single index-residue class and was badly biased
  /// whenever ping times correlated with node index.
  [[nodiscard]] double average_latency_ms() const;

  [[nodiscard]] std::size_t node_count() const noexcept { return ping_ms_.size(); }
  [[nodiscard]] double floor_ms() const noexcept { return floor_ms_; }
  /// Quantization grid in milliseconds; 0 = continuous.
  [[nodiscard]] double grid_ms() const noexcept { return grid_ms_; }
  [[nodiscard]] bool quantized() const noexcept { return grid_ms_ > 0.0; }

  /// Snaps a millisecond value UP to the next grid point (values
  /// already on the grid stay put). Identity in continuous mode.
  [[nodiscard]] double quantize_up_ms(double ms) const {
    if (grid_ms_ <= 0.0) return ms;
    // ceil snaps strictly-between values to the NEXT point and leaves
    // exact grid points alone (ms/grid is integral there).
    return std::ceil(ms / grid_ms_) * grid_ms_;
  }

  /// Appends a node (joins during churn) with the given ping time;
  /// returns its index.
  std::size_t add_node(double ping_ms);

 private:
  std::vector<double> ping_ms_;
  double floor_ms_;
  double grid_ms_;
};

}  // namespace continu::net
