#pragma once
// Deterministic discrete-event simulator: virtual clock + event queue.
//
// Everything in the reproduction — buffer-map exchanges, segment
// transfers, DHT routing hops, churn, playback ticks — executes as
// events on one Simulator instance, so a (seed, config) pair fully
// determines a run. Periodic work (source emission, node rounds,
// sampling, churn) runs on a RoundScheduler, which keeps one pending
// event per scheduler and re-arms it itself.
//
// Scheduling is allocation-free: actions are EventActions, whose
// capture is stored inline, constructed directly in the queue's slot
// pool, and cancel() is an O(1) slot write.
//
// Two engines, chosen at construction:
//
//   exact (default) — one EventQueue executing in global (time, seq)
//   order: the oracle every fingerprint refers to.
//
//   windowed (LaxConfig::skew_buckets >= 1) — a ShardedEventQueue
//   drained in bounded-skew windows whose per-shard pops fork, plus a
//   Frontier through which the network sweeps its quantized delivery
//   buckets once per window. Deterministic and thread-count invariant
//   per skew, but its own universe (docs/DETERMINISM.md contract 7).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"
#include "util/types.hpp"

namespace continu::sim {

namespace parallel {
class ParallelExecutor;
}

class Simulator;

/// External event source the windowed engine sweeps once per window
/// (the network's quantized delivery buckets). Declared here and
/// implemented above, like parallel::ForkObserver: the simulator holds
/// a typed pointer, not closures.
class Frontier {
 public:
  /// Reports the earliest pending instant, which competes for the
  /// window anchor; false when nothing is pending.
  [[nodiscard]] virtual bool next_time(SimTime& time) const = 0;
  /// Fires EVERY pending item whose instant is <= limit, in time order,
  /// calling begin_instant before each; returns the number fired.
  virtual std::size_t dispatch_window(SimTime limit) = 0;

 protected:
  ~Frontier() = default;
  /// Stamps `sim`'s clock at `time` and counts one executed instant.
  /// Only a frontier's sweep moves the clock from outside the drain.
  static void begin_instant(Simulator& sim, SimTime time) noexcept;
};

class Simulator {
 public:
  /// Engine selection. skew_buckets == 0 is the exact engine (the other
  /// fields are ignored); skew_buckets >= 1 the windowed engine, which
  /// drains windows `skew_buckets * grid_s` wide: per-shard pops fork on
  /// `exec` (a one-thread executor runs them inline with the identical
  /// shard decomposition) and execution is serial in shard-index order
  /// at per-event local clocks. Each collection fork is named
  /// obs::Phase::kLaxDrain.
  struct LaxConfig {
    unsigned skew_buckets = 0;
    SimTime grid_s = 0.0;
    parallel::ParallelExecutor* exec = nullptr;
  };

  /// The exact engine.
  Simulator() = default;
  /// The engine `lax` selects. A windowed config needs a positive grid
  /// (the skew unit is a grid bucket) and an executor; anything else is
  /// a logic error, not a silent fallback.
  explicit Simulator(LaxConfig lax);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// True when running the windowed engine.
  [[nodiscard]] bool windowed() const noexcept { return squeue_ != nullptr; }

  /// The windowed engine's queue, for window diagnostics (null on the
  /// exact engine).
  [[nodiscard]] const ShardedEventQueue* sharded_queue() const noexcept {
    return squeue_.get();
  }

  /// Draws a sequence number from the windowed engine's global stream
  /// without scheduling (the network draws one per quantized hand-off
  /// to keep event shard placement fixed). Requires windowed().
  [[nodiscard]] std::uint64_t allocate_seq() {
    if (!squeue_) {
      throw std::logic_error("Simulator::allocate_seq: exact engine");
    }
    return squeue_->allocate_seq();
  }

  /// Installs the frontier the window drain sweeps (windowed engine
  /// only; the exact engine schedules bucket proxy events instead).
  void set_frontier(Frontier& frontier) {
    if (!squeue_) {
      throw std::logic_error("Simulator::set_frontier: exact engine");
    }
    frontier_ = &frontier;
  }

  /// Schedules `f` at an absolute time (clamped to >= now()) and
  /// returns a handle usable with cancel(). The callable is constructed
  /// directly in the queue's slot pool, never on the heap; a capture
  /// that does not fit_inline fails to compile. A pre-built EventAction
  /// is rejected at compile time rather than wrapped in a second
  /// action.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventAction>>>
  EventId schedule_at(SimTime when, F&& f) {
    validate_callable(f);
    if (when < now_) when = now_;
    if (squeue_) return squeue_->emplace(when, std::forward<F>(f));
    return queue_.emplace(when, std::forward<F>(f));
  }

  /// Schedules `f` to run at now() + delay (a negative delay runs now).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventAction>>>
  EventId schedule_in(SimTime delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event; returns true iff it was still pending.
  bool cancel(EventId id) noexcept {
    return squeue_ ? squeue_->cancel(id) : queue_.cancel(id);
  }

  /// Runs events until the queue drains or the clock passes `horizon`.
  /// Events at exactly `horizon` still run. Returns events executed.
  std::size_t run_until(SimTime horizon);

  /// Runs until the queue is empty. Returns events executed.
  std::size_t run_all();

  /// Executes the next step — one event on the exact engine, one window
  /// on the windowed engine; returns whether anything ran.
  bool step();

  /// Live events still pending.
  [[nodiscard]] std::size_t pending() const noexcept {
    return squeue_ ? squeue_->size() : queue_.size();
  }

  /// Bytes held by the event queue (slot pool plus heap).
  [[nodiscard]] std::size_t queue_bytes() const noexcept {
    return squeue_ ? squeue_->approx_bytes() : queue_.approx_bytes();
  }

  /// High-water mark of pending events since construction.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return squeue_ ? squeue_->peak_size() : queue_.peak_size();
  }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  friend class Frontier;

  /// Rejects the one empty callable the API can meet (a null
  /// std::function); arbitrary callables are always invocable.
  template <typename F>
  static void validate_callable(const F& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>>) {
      if (!f) throw std::invalid_argument("Simulator: empty action");
    }
  }

  /// The one drain loop behind run_until, run_all and step: executes
  /// what is due at or before `horizon`, at most `max_steps` steps
  /// (events on the exact engine, windows on the windowed one).
  /// Returns events executed.
  std::size_t drain(SimTime horizon, std::size_t max_steps);

  /// Windowed drain: repeats { anchor at the earliest pending (time,
  /// seq), fork per-shard pops of everything due within the skew window,
  /// execute serially in shard order, sweep delivery buckets through
  /// the window }.
  std::size_t drain_lax(SimTime horizon, std::size_t max_windows);

  EventQueue queue_;
  std::unique_ptr<ShardedEventQueue> squeue_;
  Frontier* frontier_ = nullptr;
  LaxConfig lax_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
};

inline void Frontier::begin_instant(Simulator& sim, SimTime time) noexcept {
  sim.now_ = time;
  ++sim.executed_;
}

}  // namespace continu::sim
