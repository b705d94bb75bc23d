#pragma once
// ShardedEventQueue — the windowed engine's event queue: eight
// per-shard slot-pool event heaps fed from one global sequence counter.
//
// Every event carries a sequence number drawn from ONE global counter;
// its shard is `seq & (kShards - 1)`, so placement is a pure function
// of schedule order (never of thread count) and the shard is
// recoverable from the EventId in O(1) for cancel.
//
// The queue drains in bounded-skew WINDOWS (queue_skew_buckets >= 1):
// anchored at the earliest pending time — the minimum of the eight
// shard heads, read once per window — every shard pops its events due
// within `anchor + skew` concurrently (collect_window — queue-local
// heap pops only), then the refs execute serially in shard-index order
// at their own local clocks. Collection keeps slots registered, so
// cancels landing mid-window are still honoured at execution. Window
// order is a pure function of the pending set and the window width —
// deterministic and thread-count invariant per skew setting — but it
// is a DIFFERENT universe from the exact engine's global (time, seq)
// order (docs/DETERMINISM.md contract 7; drift quantified in
// bench/results/pr10_lax_drain/).

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace continu::sim {

class ShardedEventQueue {
 public:
  /// Fixed shard count. The shard of a sequence is `seq & (kShards - 1)`
  /// and windows execute in shard-index order, so the count is part of
  /// every windowed fingerprint — it is a constant, not a knob.
  static constexpr unsigned kShards = 8;

  /// `skew_buckets` (>= 1) is the window width in grid steps; it sizes
  /// the lead histogram (lead 0..skew grid steps past the anchor).
  explicit ShardedEventQueue(unsigned skew_buckets);
  ShardedEventQueue(const ShardedEventQueue&) = delete;
  ShardedEventQueue& operator=(const ShardedEventQueue&) = delete;

  /// Draws one sequence number from the global stream WITHOUT
  /// scheduling. The network draws one per quantized hand-off: event
  /// shard placement is `seq`-based, so the interleaving of hand-off
  /// and event sequences is part of every windowed fingerprint.
  [[nodiscard]] std::uint64_t allocate_seq() noexcept { return next_seq_++; }

  template <typename F>
  EventId emplace(SimTime time, F&& f) {
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t shard = shard_of_seq(seq);
    const EventId id = shards_[shard].emplace_with_seq(seq, time, std::forward<F>(f));
    note_push();
    return id;
  }

  bool cancel(EventId id) noexcept;

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_live_; }

  /// Bytes held by the shard queues and their window lists.
  [[nodiscard]] std::size_t approx_bytes() const noexcept;

  /// Earliest pending event time across all shards (the window
  /// anchor): the minimum of the eight live shard heads, read once per
  /// window. False when empty.
  bool next_time(SimTime& time) const;

  /// Phase A (forkable, one worker per shard): pops shard `shard`'s
  /// events due at or before `limit` into its private window list.
  /// Queue-local heap/slot state only — workers must not touch live_
  /// or any counter; finish_window() and execute_window() settle those
  /// serially.
  void collect_window(std::uint32_t shard, SimTime limit);

  /// Serial post-fork settlement: accounts the window (skew-stalled
  /// shards, per-shard lead histogram of collected events vs `anchor`
  /// on `grid_s` buckets).
  void finish_window(SimTime anchor, SimTime grid_s);

  /// Phase B (serial): executes the collected refs in shard-index
  /// order, skipping refs cancelled since collection. `on_event(time)`
  /// runs before each execution so the simulator can stamp its clock
  /// and executed count. Returns events actually run.
  template <typename Fn>
  std::size_t execute_window(Fn&& on_event) {
    std::size_t ran = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      for (const EventQueue::WindowRef& ref : window_[s]) {
        if (!shards_[s].collected_live(ref)) continue;
        on_event(ref.time);
        shards_[s].execute_collected(ref);
        --live_;
        ++ran;
      }
      window_[s].clear();
    }
    lax_events_drained_ += ran;
    return ran;
  }

  /// Windows drained.
  [[nodiscard]] std::uint64_t lax_windows() const noexcept { return lax_windows_; }
  /// Events executed through windows.
  [[nodiscard]] std::uint64_t lax_events_drained() const noexcept {
    return lax_events_drained_;
  }
  /// Cumulative shards that held NO event inside a window (skew-stall:
  /// the window could not feed that shard any work).
  [[nodiscard]] std::uint64_t lax_stalled_shards() const noexcept {
    return lax_stalled_shards_;
  }
  /// Per-lead histogram: bucket b counts collected events whose time
  /// sat b grid steps past their window's anchor. A mass concentrated
  /// at bucket 0 means the skew window is not being used; mass in the
  /// tail is recovered parallelism.
  [[nodiscard]] const std::vector<std::uint64_t>& lax_lead_histogram()
      const noexcept {
    return lax_lead_hist_;
  }

 private:
  static constexpr std::uint32_t kShardMask = kShards - 1;

  [[nodiscard]] static std::uint32_t shard_of_seq(std::uint64_t seq) noexcept {
    return static_cast<std::uint32_t>(seq) & kShardMask;
  }
  [[nodiscard]] static std::uint32_t shard_of_id(EventId id) noexcept {
    return shard_of_seq(id >> EventQueue::kSlotBits);
  }

  void note_push() noexcept {
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
  }

  std::vector<EventQueue> shards_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;

  /// Per-shard collected-ref scratch; written only by the owning
  /// worker during a window fork, consumed serially by execute_window.
  std::vector<std::vector<EventQueue::WindowRef>> window_;
  std::uint64_t lax_windows_ = 0;
  std::uint64_t lax_events_drained_ = 0;
  std::uint64_t lax_stalled_shards_ = 0;
  std::vector<std::uint64_t> lax_lead_hist_;
};

}  // namespace continu::sim
