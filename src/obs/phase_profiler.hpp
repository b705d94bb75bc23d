#pragma once
// Phase profiler: nanosecond wall-clock accounting for every engine
// phase — the forked round phases (prepare-local, plan), the serial
// ones (prepare-link, commit), quantized delivery buckets and the
// metrics/churn sweeps — plus per-fork shard timing from the executor's
// ForkObserver hooks.
//
// Workers write only their own cache-line-aligned shard slot (zeroed at
// on_fork, folded at on_join on the calling thread, with the executor's
// join as the synchronization edge), so recording is lock-free and,
// once the slot vector has grown to the session's widest fork,
// allocation-free. Everything here is wall-clock measurement of
// obs-owned state: enabling the profiler cannot move a result
// fingerprint.
//
// The Amdahl estimate is thread-count robust: serial time is the run
// wall MINUS the fork walls (everything not under a fork), and the
// parallelizable mass is the summed per-shard work, so the reported
// serial fraction answers "what does perfect scaling leave behind"
// rather than reflecting however many threads this run happened to use.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/phases.hpp"
#include "sim/parallel/executor.hpp"

namespace continu::obs {

class TraceSink;

struct PhaseTotals {
  std::uint64_t serial_ns = 0;        ///< explicit serial spans
  std::uint64_t serial_spans = 0;
  std::uint64_t fork_wall_ns = 0;     ///< fork-to-join wall time
  std::uint64_t forked_work_ns = 0;   ///< summed per-shard durations
  std::uint64_t forks = 0;
  std::uint64_t shards_run = 0;
  std::uint64_t max_shard_ns = 0;     ///< summed slowest-shard durations
  double mean_shard_ns = 0.0;         ///< summed mean-shard durations

  /// Shard imbalance: slowest shard over mean shard, fork-weighted.
  /// 1.0 = perfectly balanced; 0.0 = no forked work recorded.
  [[nodiscard]] double imbalance() const noexcept {
    return mean_shard_ns > 0.0 ? static_cast<double>(max_shard_ns) / mean_shard_ns
                               : 0.0;
  }
};

struct AmdahlEstimate {
  std::uint64_t run_wall_ns = 0;
  std::uint64_t fork_wall_ns = 0;    ///< sum over all forks
  std::uint64_t forked_work_ns = 0;  ///< sum over all shards of all forks
  std::uint64_t serial_ns = 0;       ///< run_wall - fork_wall (clamped at 0)
  /// serial / (serial + forked_work); 1.0 when nothing was measured.
  double serial_fraction = 1.0;
};

struct ProfileReport {
  unsigned threads = 1;
  std::array<PhaseTotals, kPhaseCount> phases{};
  /// Log2 batch-size histogram per phase: bucket b counts forks whose
  /// item count n satisfies 2^b <= n < 2^(b+1) (bucket 0 includes n<=1).
  /// Items are what the fork shards over: nodes for the round phases and
  /// sweeps, receivers (not deliveries) for delivery_bucket.
  std::array<std::array<std::uint64_t, 20>, kPhaseCount> batch_hist{};
  AmdahlEstimate amdahl{};
};

class PhaseProfiler final : public sim::parallel::ForkObserver {
 public:
  static constexpr std::size_t kHistBuckets = 20;

  PhaseProfiler() = default;

  void set_threads(unsigned threads) noexcept { threads_ = threads; }
  /// Optional: mirror per-shard and serial spans into a trace sink
  /// (drawn as the wall-clock track of the Chrome trace export).
  void set_span_sink(TraceSink* sink) noexcept { span_sink_ = sink; }

  /// Accounts an explicit serial span (prepare-link, commit).
  void record_serial(Phase phase, std::uint64_t t0_ns, std::uint64_t t1_ns);

  /// Adds a Session::run() wall-clock bracket to the Amdahl base.
  void add_run_wall(std::uint64_t wall_ns) noexcept { run_wall_ns_ += wall_ns; }

  // ForkObserver — called by the executor. on_fork attributes the
  // fork/join to `phase` and bumps that phase's batch-size histogram.
  void on_fork(Phase phase, std::size_t items, std::size_t shards) override;
  void on_shard_done(std::size_t shard, std::uint64_t t0_ns,
                     std::uint64_t t1_ns) override;
  void on_join(std::uint64_t fork_t0_ns, std::uint64_t join_t1_ns) override;

  [[nodiscard]] ProfileReport report() const;
  [[nodiscard]] const PhaseTotals& totals(Phase phase) const noexcept {
    return totals_[static_cast<std::size_t>(phase)];
  }

  /// Steady-state no-allocation witness: slot storage stops moving once
  /// the widest fork has been seen.
  [[nodiscard]] const void* shard_slot_data() const noexcept { return slots_.data(); }
  [[nodiscard]] std::size_t shard_slot_capacity() const noexcept {
    return slots_.capacity();
  }

  [[nodiscard]] static std::size_t histogram_bucket(std::size_t items) noexcept {
    std::size_t bucket = 0;
    while (items > 1 && bucket + 1 < kHistBuckets) {
      items >>= 1U;
      ++bucket;
    }
    return bucket;
  }

 private:
  // One cache line per shard: workers time disjoint slots with no
  // false sharing; the join publishes them before on_join folds.
  struct alignas(64) ShardSlot {
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
  };

  Phase current_ = Phase::kOtherFork;
  unsigned threads_ = 1;
  std::uint64_t run_wall_ns_ = 0;
  std::size_t fork_shards_ = 0;
  std::vector<ShardSlot> slots_;
  std::array<PhaseTotals, kPhaseCount> totals_{};
  std::array<std::array<std::uint64_t, kHistBuckets>, kPhaseCount> hist_{};
  TraceSink* span_sink_ = nullptr;
};

}  // namespace continu::obs
