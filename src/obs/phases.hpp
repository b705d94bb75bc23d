#pragma once
// Phase taxonomy shared by the profiler (per-phase timing totals) and
// the trace sink (wall-time phase spans). One entry per instrumented
// region of the engine. Every fork names its phase in
// ParallelExecutor::for_shards; kOtherFork is the name for forks outside
// the engine's phases (ad-hoc and test forks).

#include <cstddef>
#include <cstdint>

namespace continu::obs {

enum class Phase : std::uint8_t {
  kPrepareLocal = 0,  ///< round batch phase 1a (forked)
  kPrepareLink,       ///< round batch phase 1b (serial)
  kPlan,              ///< round batch phase 2 (forked)
  kCommit,            ///< round batch phase 3 (serial)
  kDeliveryBucket,    ///< quantized-mode bucket dispatch (forked)
  kShardDrain,        ///< retired with the strict sharded engine: never
                      ///< recorded, kept for phase-indexed readers
                      ///< (bench/suite)
  kLaxDrain,          ///< retired with the forked window collection:
                      ///< never recorded, kept for phase-indexed
                      ///< readers (bench/suite)
  kSampleSweep,       ///< metrics sample tick sweep (forked)
  kChurnSweep,        ///< dead-supplier transfer sweep (forked)
  kOtherFork,         ///< fork/join outside the engine's phases
  kCount,
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] inline const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kPrepareLocal: return "prepare_local";
    case Phase::kPrepareLink: return "prepare_link";
    case Phase::kPlan: return "plan";
    case Phase::kCommit: return "commit";
    case Phase::kDeliveryBucket: return "delivery_bucket";
    case Phase::kShardDrain: return "shard_drain";
    case Phase::kLaxDrain: return "lax_drain";
    case Phase::kSampleSweep: return "sample_sweep";
    case Phase::kChurnSweep: return "churn_sweep";
    case Phase::kOtherFork: return "other_fork";
    case Phase::kCount: break;
  }
  return "unknown";
}

}  // namespace continu::obs
