#include "sim/parallel/executor.hpp"

#include <algorithm>
#include <chrono>

namespace continu::sim::parallel {

namespace {

/// One polite iteration of a spin loop: lets a sibling hyperthread run.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `done()` holds: spins briefly, then yields the core on
/// every poll, so a thread that lost its core (more threads than cores,
/// or a sanitizer build) still lets the thread it waits for run.
template <typename Done>
void spin_until(Done done) {
  for (unsigned polls = 0; !done(); ++polls) {
    if (polls < 1024) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ParallelExecutor::ParallelExecutor(unsigned threads) : threads_(threads) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = std::max(cores, 1u);
  // A spinning worker on a shared core only steals the time of the
  // thread it waits for.
  spin_ns_ = threads_ <= cores ? kSpinNs : 0;
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  stop_.store(true);
  {
    // Taking the mutex orders the store before any parked worker's
    // predicate check.
    std::lock_guard<std::mutex> lock(park_mutex_);
  }
  park_cv_.notify_all();
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

  // No job is live and no worker is inside one, so the description is
  // the caller's to write; the job-word store publishes it.
  fn_ = &fn;
  count_ = count;
  grain_ = grain;
  shards_ = shards;
  next_claim_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  errors_.assign(shards, nullptr);
  job_.store((++jobs_ << 1) | 1);
  // Paired with a parking worker's increment-then-check: either these
  // loads see its wait, or its check sees the job. One notify covers
  // every wait counted so far, so a worker still waking from the last
  // one costs nothing.
  if (parked_.load() != 0) {
    const std::uint64_t waits = park_waits_.load();
    if (waits != notified_waits_) {
      notified_waits_ = waits;
      { std::lock_guard<std::mutex> lock(park_mutex_); }
      park_cv_.notify_all();
    }
  }
  run_claims();  // the calling thread is worker 0
  spin_until([this, shards] {
    return completed_.load(std::memory_order_acquire) == shards;
  });
  // Retire the job before anything can rewrite its description: clear
  // the word's live bit, then wait out every worker that registered for
  // it (one registering now re-reads the word, sees it changed and
  // leaves).
  job_.store(jobs_ << 1);
  spin_until([this] { return inside_.load() == 0; });

  // The completion count above synchronizes every worker's
  // on_shard_done writes.
  if (obs != nullptr) obs->on_join(fork_t0, monotonic_ns());
  // Rethrow by shard index, not completion order, so WHICH error
  // surfaces is as deterministic as everything else.
  for (std::size_t s = 0; s < shards; ++s) {
    if (errors_[s]) std::rethrow_exception(errors_[s]);
  }
}

void ParallelExecutor::run_claims() {
  const ShardFn& fn = *fn_;
  ForkObserver* const obs = observer_;
  std::size_t ran = 0;
  for (;; ++ran) {
    const std::size_t s = next_claim_.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards_) break;
    const std::size_t begin = s * grain_;
    const std::size_t end = std::min(count_, begin + grain_);
    const std::uint64_t t0 = obs != nullptr ? monotonic_ns() : 0;
    try {
      fn(s, begin, end);
    } catch (...) {
      errors_[s] = std::current_exception();
    }
    if (obs != nullptr) obs->on_shard_done(s, t0, monotonic_ns());
  }
  if (ran != 0) completed_.fetch_add(ran, std::memory_order_release);
}

std::uint64_t ParallelExecutor::wait_for_job(std::uint64_t seen) {
  const auto ready = [this, seen](std::uint64_t& job) {
    // seq_cst: after a park_waits_ increment this is the parking side
    // of the pairing with for_shards' loads after its job-word store.
    job = job_.load();
    return stop_.load(std::memory_order_relaxed) || ((job & 1) != 0 && job != seen);
  };
  std::uint64_t job = 0;
  if (spin_ns_ != 0) {
    // The budget runs from the last fork seen, joined or not: a worker
    // that missed a short job is still wanted for the next one.
    std::uint64_t last = job_.load(std::memory_order_relaxed) >> 1;
    std::uint64_t deadline = monotonic_ns() + spin_ns_;
    for (;;) {
      if (ready(job)) return job;
      cpu_relax();
      const std::uint64_t now = monotonic_ns();
      if ((job >> 1) != last) {
        last = job >> 1;
        deadline = now + spin_ns_;
      } else if (now >= deadline) {
        break;
      }
    }
  }
  std::unique_lock<std::mutex> lock(park_mutex_);
  parked_.fetch_add(1);
  for (;;) {
    park_waits_.fetch_add(1);  // owed a notify by the next fork
    if (ready(job)) break;
    park_cv_.wait(lock);
  }
  parked_.fetch_sub(1);
  return job;
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::uint64_t job = wait_for_job(seen);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Register, then re-read: the caller retires a job by changing the
    // word before it waits for inside_ to drain, so a worker that still
    // sees its job here runs inside it.
    inside_.fetch_add(1);
    if (job_.load() == job) run_claims();
    inside_.fetch_sub(1, std::memory_order_release);
    seen = job;
  }
}

}  // namespace continu::sim::parallel
