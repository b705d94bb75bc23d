#pragma once
// DHT identifier space: a clockwise ring of size N (power of two).
//
// Terminology follows the paper (Section 4.1): node n's level-i DHT peer
// may be any node whose ID lies in [n + 2^(i-1), n + 2^i) mod N, for
// i = 1..log N. Responsibility for a target t falls on the node
// counter-clockwise closest to t (i.e. t's "predecessor", inclusive).

#include <cstdint>
#include <utility>

#include "util/hash.hpp"
#include "util/ring_math.hpp"
#include "util/types.hpp"

namespace continu::dht {

class IdSpace {
 public:
  /// N must be a power of two >= 2 (the paper uses N = 8192).
  explicit IdSpace(std::uint64_t size);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] unsigned levels() const noexcept { return levels_; }

  /// Clockwise distance from a to b.
  [[nodiscard]] std::uint64_t distance(NodeId a, NodeId b) const noexcept {
    return util::clockwise_distance(a, b, size_);
  }

  /// Level of peer `peer` relative to `node`: the i such that
  /// peer in [node + 2^(i-1), node + 2^i). Returns 0 for peer == node.
  [[nodiscard]] unsigned level_of(NodeId node, NodeId peer) const noexcept {
    const std::uint64_t d = distance(node, peer);
    if (d == 0) return 0;
    // d in [2^(i-1), 2^i)  =>  i = floor(log2(d)) + 1.
    return util::floor_log2(d) + 1;
  }

  /// Half-open clockwise arc [lo, hi) of level i relative to `node`.
  [[nodiscard]] std::pair<NodeId, NodeId> level_arc(NodeId node, unsigned level) const noexcept;

  /// DHT target of replica `replica` (1-based) for segment `id`:
  /// hash(id * replica) mod N (paper eq. 5).
  [[nodiscard]] NodeId backup_target(SegmentId id, unsigned replica) const noexcept {
    return static_cast<NodeId>(util::backup_target(id, replica, size_));
  }

  /// Theoretical routing-hop upper bound from the paper's appendix:
  /// log2(N) / log2(4/3) ~= 2.41 * log2(N).
  [[nodiscard]] double hop_upper_bound() const noexcept;

 private:
  std::uint64_t size_;
  unsigned levels_;
};

}  // namespace continu::dht
