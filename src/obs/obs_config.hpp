#pragma once
// Runtime switches for the deterministic observability layer (src/obs/).
// Everything defaults OFF: a default-constructed config adds nothing to
// the hot paths beyond null-pointer checks, and enabling any pillar is
// guaranteed not to move a result fingerprint — observability writes
// only to obs-owned state (profiler slots, trace rings, counter lanes),
// never to RNG streams, node state or the event queue. CI enforces the
// guarantee by diffing scenario fingerprints obs-on vs obs-off.

#include <cstddef>
#include <cstdint>

namespace continu::obs {

/// Sentinel for "trace every node" (no per-node timeline filter).
inline constexpr std::uint32_t kTraceAllNodes = 0xFFFFFFFFu;
/// Events per shard trace ring (memory = shards x capacity x ~40 B;
/// the ring overwrites oldest, so a run always keeps its newest tail).
inline constexpr std::size_t kTraceCapacity = 4096;

struct ObsConfig {
  /// Phase profiler: wall-clock timers around round phases, delivery
  /// buckets and executor fork/joins, plus the Amdahl serial-fraction
  /// estimate.
  bool profile = false;
  /// Structured trace: per-shard ring buffers of sim-time protocol
  /// events and wall-time phase spans, exportable as Chrome trace JSON.
  bool trace = false;
  /// Counter registry: per-shard counters settled in shard order,
  /// dumped as a JSON snapshot.
  bool counters = false;
  /// Per-node timeline filter: record only trace events whose node (or
  /// peer) session index matches. kTraceAllNodes = record everything.
  std::uint32_t trace_node = kTraceAllNodes;

  [[nodiscard]] bool any() const noexcept { return profile || trace || counters; }
};

}  // namespace continu::obs
