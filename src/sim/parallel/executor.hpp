#pragma once
// ParallelExecutor — deterministic fork/join over a persistent worker
// pool, the parallel substrate for intra-session execution.
//
// The central contract is DETERMINISM BY CONSTRUCTION: for_shards()
// splits [0, count) into fixed-size shards whose boundaries depend only
// on (count, grain) — never on the thread count or on scheduling — and
// the caller merges per-shard results in shard order after the join.
// Any quantity accumulated per shard (stats deltas, floating-point
// sums, buffered event emissions) therefore reduces in exactly the same
// order at threads = 1, 2, 4 or 8, which is what lets a parallel
// session fingerprint bit-identically to a serial one.
//
// Shards are claimed dynamically, one atomic fetch_add per claim, so a
// slow shard does not idle the rest of the pool; WHO runs a shard is
// nondeterministic, but because shards only touch disjoint state and
// merge order is fixed, that never shows in results.
//
// Forks are wake-free in the common case. A job is published through
// one atomic job word; a worker polls that word until kSpinNs pass
// without a fork before it parks on a condition variable, and
// for_shards pays for a notify only when a worker has parked since the
// last one. A quantized session forks again a median 58 µs after a
// join, so a worker is usually still spinning when the next bucket
// forks.
//
// A late worker never touches a newer job: it registers in `inside_`
// and re-reads the job word before it claims, and the caller retires a
// job (clears the word's live bit, then waits for `inside_` to drain)
// before it writes the next one.
//
// threads == 1 never spawns a pool and runs shards inline — through the
// SAME decomposition, so the serial path is the parallel path with one
// worker, not a separate code path that could drift.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/phases.hpp"

namespace continu::sim::parallel {

/// Monotonic wall clock in nanoseconds, shared by the executor's shard
/// timing and the obs layer's serial-span brackets so every timestamp
/// lives on one axis.
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;

/// Passive fork/join instrumentation hook (the obs layer's phase
/// profiler). on_fork and on_join run serially on the calling thread,
/// bracketing the job; on_shard_done runs on whichever worker executed
/// the shard but may only touch state indexed by that shard — the
/// executor's join synchronizes those writes before on_join reads them.
/// Observers must not throw and must not call back into the executor.
class ForkObserver {
 public:
  virtual ~ForkObserver() = default;
  /// A `phase` job of `items` items in `shards` shards is about to
  /// launch (serial, pre-fork).
  virtual void on_fork(obs::Phase phase, std::size_t items, std::size_t shards) = 0;
  /// Shard `shard` ran on [t0_ns, t1_ns] (worker thread, mid-fork).
  virtual void on_shard_done(std::size_t shard, std::uint64_t t0_ns,
                             std::uint64_t t1_ns) = 0;
  /// The job joined; fork_t0_ns..join_t1_ns is the fork wall time
  /// (serial, post-join — every on_shard_done is visible here).
  virtual void on_join(std::uint64_t fork_t0_ns, std::uint64_t join_t1_ns) = 0;
};

class ParallelExecutor {
 public:
  /// fn(shard, begin, end): process items [begin, end) of the current
  /// for_shards() range. `shard` indexes per-shard result buffers.
  using ShardFn = std::function<void(std::size_t shard, std::size_t begin,
                                     std::size_t end)>;

  /// How long an idle worker polls the job word, counted from the last
  /// fork it saw, before it parks. Over the 12,724 forks of a seed-42
  /// grid_8k run (2 threads, 1 ms buckets) the gap from one join to the
  /// next fork has a median of 58 µs; 76% of gaps are under 200 µs, 94%
  /// under 500 µs and 98% under 1 ms (lax_8k: 76%, 88%, 97%). A parked
  /// worker joins a fork late, after a futex wake that spanned several
  /// forks on a 4-vCPU Xeon VM, and the caller runs those shards alone.
  /// In interleaved grid_8k runs there, 200 µs took a median 10% off the
  /// parent's wall and 1 ms 15%; at 1 ms the worker parks about 400
  /// times a run and joins 98% of the forks.
  static constexpr std::uint64_t kSpinNs = 1'000'000;

  /// threads == 0 resolves to std::thread::hardware_concurrency()
  /// (minimum 1). The pool persists for the executor's lifetime:
  /// threads - 1 workers, plus the calling thread which always
  /// participates in shard execution. Workers spin only when every
  /// thread of the pool can have a core of its own.
  explicit ParallelExecutor(unsigned threads = 1);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Workers parked on the condition variable right now (the rest are
  /// spinning or running shards). A diagnostic: racy by nature.
  [[nodiscard]] unsigned parked() const noexcept {
    return parked_.load(std::memory_order_relaxed);
  }

  /// Number of shards for_shards(count, grain, ...) will run — a pure
  /// function of (count, grain) so callers can pre-size per-shard
  /// buffers. Thread-count independent by design.
  [[nodiscard]] static std::size_t shard_count(std::size_t count,
                                               std::size_t grain) noexcept {
    if (grain == 0) grain = 1;
    return (count + grain - 1) / grain;
  }

  /// Runs fn over every shard of [0, count); returns after ALL shards
  /// completed (the join). `phase` names the fork for the observer
  /// (profiler attribution, batch-size histogram) and nothing else.
  /// The first shard exception (lowest shard index) is rethrown on the
  /// calling thread. Reentrant calls from inside a shard are not
  /// supported.
  void for_shards(obs::Phase phase, std::size_t count, std::size_t grain,
                  const ShardFn& fn);

  /// Installs (or clears, with nullptr) the fork/join observer. Serial
  /// only — never call while a job is in flight. When no observer is
  /// set the cost is one pointer check per fork and per shard claim.
  void set_observer(ForkObserver* observer) noexcept { observer_ = observer; }

 private:
  void worker_loop();
  /// Spins, then parks, until a job other than `seen` is live (its
  /// word) or the pool stops.
  std::uint64_t wait_for_job(std::uint64_t seen);
  /// Claims and runs shards of the current job until none remain.
  void run_claims();

  unsigned threads_;
  std::uint64_t spin_ns_ = 0;
  std::vector<std::thread> workers_;
  // Not atomic: written serially between jobs, read by workers only
  // during a job (the job-word store publishes it).
  ForkObserver* observer_ = nullptr;

  // The job word: the latest job's number times two, plus one while
  // that job is live. Workers read the job description below only
  // after seeing it live here. Idle workers poll this line, so the
  // counters a running job bangs on live on lines of their own.
  alignas(64) std::atomic<std::uint64_t> job_{0};
  std::uint64_t jobs_ = 0;  ///< numbers handed out (caller only)
  std::atomic<unsigned> inside_{0};  ///< workers registered in a job
  std::atomic<unsigned> parked_{0};
  /// Waits begun by parking workers, and the count the caller last
  /// notified (caller only): a notify is owed when they differ.
  std::atomic<std::uint64_t> park_waits_{0};
  std::uint64_t notified_waits_ = 0;
  std::atomic<bool> stop_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;

  // The current job, written by the caller while no job is live.
  const ShardFn* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t grain_ = 1;
  std::size_t shards_ = 0;
  std::vector<std::exception_ptr> errors_;
  alignas(64) std::atomic<std::size_t> next_claim_{0};
  /// Shards finished, added once per thread as it runs out of claims.
  alignas(64) std::atomic<std::size_t> completed_{0};
};

/// Ordered reduction helper: folds per-shard partials into `total` in
/// shard order with `total += partial`. Trivial on purpose — the value
/// is the NAME at call sites: it marks the spots whose correctness
/// depends on the fixed shard structure, not on thread count.
template <typename T>
void reduce_in_order(std::vector<T>& partials, T& total) {
  for (T& partial : partials) {
    total += partial;
  }
}

}  // namespace continu::sim::parallel
