#include "net/latency_model.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace continu::net {

LatencyModel::LatencyModel(std::vector<double> ping_ms, double floor_ms,
                           double grid_ms)
    : ping_ms_(std::move(ping_ms)), floor_ms_(floor_ms), grid_ms_(grid_ms) {
  if (ping_ms_.empty()) {
    throw std::invalid_argument("LatencyModel: need at least one node");
  }
  if (floor_ms_ < 0.0) {
    throw std::invalid_argument("LatencyModel: floor must be non-negative");
  }
  if (grid_ms_ < 0.0) {
    throw std::invalid_argument("LatencyModel: grid must be non-negative");
  }
}

LatencyModel LatencyModel::from_trace(const trace::TraceSnapshot& snapshot,
                                      double floor_ms, double grid_ms) {
  std::vector<double> pings;
  pings.reserve(snapshot.node_count());
  for (const auto& node : snapshot.nodes()) {
    pings.push_back(node.ping_ms);
  }
  return LatencyModel(std::move(pings), floor_ms, grid_ms);
}

SimTime LatencyModel::rtt_s(std::size_t a, std::size_t b) const {
  return 2.0 * latency_s(a, b);
}

double LatencyModel::average_latency_ms() const {
  const std::size_t n = ping_ms_.size();
  if (n < 2) return quantize_up_ms(floor_ms_);
  double total = 0.0;
  std::size_t pairs = 0;
  if (n <= 512) {
    // Exact for small n.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        total += latency_ms(i, j);
        ++pairs;
      }
    }
  } else {
    // Fixed-size uniform pair sample, deterministically seeded from n
    // alone: the estimate is a pure function of the ping vector, and
    // the sample size no longer cliffs at the n = 513 stride jump the
    // old lattice sweep had. The tiny modulo bias (n << 2^64) is the
    // same for every platform and run.
    constexpr std::size_t kSamplePairs = 4096;
    std::uint64_t seed =
        0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(n) * 0xbf58476d1ce4e5b9ULL);
    for (std::size_t k = 0; k < kSamplePairs; ++k) {
      const std::size_t i =
          static_cast<std::size_t>(util::splitmix64(seed) % n);
      std::size_t j =
          static_cast<std::size_t>(util::splitmix64(seed) % (n - 1));
      if (j >= i) ++j;  // uniform over j != i
      total += latency_ms(i, j);
      ++pairs;
    }
  }
  return pairs == 0 ? quantize_up_ms(floor_ms_) : total / static_cast<double>(pairs);
}

std::size_t LatencyModel::add_node(double ping_ms) {
  ping_ms_.push_back(ping_ms);
  return ping_ms_.size() - 1;
}

}  // namespace continu::net
