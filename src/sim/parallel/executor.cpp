#include "sim/parallel/executor.hpp"

#include <algorithm>
#include <chrono>

namespace continu::sim::parallel {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ParallelExecutor::ParallelExecutor(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ParallelExecutor::for_shards(obs::Phase phase, std::size_t count,
                                  std::size_t grain, const ShardFn& fn) {
  if (grain == 0) grain = 1;
  const std::size_t shards = shard_count(count, grain);
  if (shards == 0) return;
  ForkObserver* const obs = observer_;
  const std::uint64_t fork_t0 = obs != nullptr ? monotonic_ns() : 0;
  if (obs != nullptr) obs->on_fork(phase, count, shards);
  if (workers_.empty() || shards == 1) {
    // Inline path: the SAME shard decomposition as the pooled path, so
    // per-shard accumulation (and its floating-point merge order) is
    // identical at every thread count.
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * grain;
      const std::size_t end = std::min(count, begin + grain);
      if (obs != nullptr) {
        const std::uint64_t t0 = monotonic_ns();
        fn(s, begin, end);
        obs->on_shard_done(s, t0, monotonic_ns());
      } else {
        fn(s, begin, end);
      }
    }
    if (obs != nullptr) obs->on_join(fork_t0, monotonic_ns());
    return;
  }

  std::uint64_t job_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    count_ = count;
    grain_ = grain;
    shards_ = shards;
    next_claim_ = 0;
    completed_ = 0;
    errors_.assign(shards, nullptr);
    job_epoch = ++epoch_;
  }
  start_cv_.notify_all();
  run_claims(job_epoch);  // the calling thread is worker 0

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return completed_ == shards_; });
    fn_ = nullptr;  // no late claims against a finished job
  }
  // The join above synchronizes every worker's on_shard_done writes.
  if (obs != nullptr) obs->on_join(fork_t0, monotonic_ns());
  // Rethrow by shard index, not completion order, so WHICH error
  // surfaces is as deterministic as everything else.
  for (std::size_t s = 0; s < shards; ++s) {
    if (errors_[s]) std::rethrow_exception(errors_[s]);
  }
}

void ParallelExecutor::run_claims(std::uint64_t job_epoch) {
  for (;;) {
    std::size_t s = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    const ShardFn* fn = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (epoch_ != job_epoch || fn_ == nullptr || next_claim_ >= shards_) return;
      s = next_claim_++;
      begin = s * grain_;
      end = std::min(count_, begin + grain_);
      fn = fn_;
    }
    ForkObserver* const obs = observer_;
    std::exception_ptr error = nullptr;
    const std::uint64_t t0 = obs != nullptr ? monotonic_ns() : 0;
    try {
      (*fn)(s, begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    if (obs != nullptr) obs->on_shard_done(s, t0, monotonic_ns());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error) errors_[s] = error;
      if (++completed_ == shards_) done_cv_.notify_all();
    }
  }
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [this, seen] {
      return stop_ || (epoch_ != seen && fn_ != nullptr);
    });
    if (stop_) return;
    const std::uint64_t job_epoch = epoch_;
    seen = job_epoch;
    lock.unlock();
    run_claims(job_epoch);
    lock.lock();
  }
}

}  // namespace continu::sim::parallel
