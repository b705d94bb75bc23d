#pragma once
// ShardedEventQueue — the windowed engine's event queue: per-shard
// slot-pool event heaps under a meta-heap over per-shard head keys.
//
// Every event carries a sequence number drawn from ONE global counter;
// its shard is `seq & (kShards - 1)`, so placement is a pure function
// of schedule order (never of thread count) and the shard is
// recoverable from the EventId in O(1) for cancel. The meta-heap
// orders shards by their head (time, seq) key, so the earliest pending
// event across all shards — the window anchor — is one heap-top read.
//
// The queue drains in bounded-skew WINDOWS (queue_skew_buckets >= 1):
// anchored at the earliest pending (time, seq), every shard pops its
// events due within `anchor + skew` concurrently (collect_window —
// queue-local heap pops only), then the refs execute serially in
// shard-index order at their own local clocks. Collection keeps slots
// registered, so cancels landing mid-window are still honoured at
// execution. Window order is a pure function of the pending set and
// the window width — deterministic and thread-count invariant per skew
// setting — but it is a DIFFERENT universe from the exact engine's
// global (time, seq) order (docs/DETERMINISM.md contract 7; drift
// quantified in bench/results/pr10_lax_drain/).
//
// The meta-heap is kept EXACT at all times: push, cancel and window
// settlement each refresh the touched shard's entry, so a cancel of the
// earliest event moves the next anchor immediately.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace continu::sim {

/// Tiny binary min-heap over at most `slots` (time, key) entries, one
/// per shard, with a position index for O(log n) in-place update. Key
/// ties cannot happen (keys are globally unique sequences); ordering is
/// (time, key) ascending — identical to EventQueue's heap order.
class MetaHeap {
 public:
  struct Top {
    SimTime time = 0.0;
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };

  explicit MetaHeap(std::uint32_t slots) : pos_(slots, kAbsent) {
    heap_.reserve(slots);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Earliest (time, key) entry. Requires !empty().
  [[nodiscard]] Top top() const noexcept {
    const Entry& e = heap_.front();
    return Top{e.time, e.key, e.slot};
  }

  /// Inserts or repositions `slot`'s entry at (time, key).
  void update(std::uint32_t slot, SimTime time, std::uint64_t key) {
    std::uint32_t i = pos_[slot];
    if (i == kAbsent) {
      i = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(Entry{time, key, slot});
      pos_[slot] = i;
      sift_up(i);
      return;
    }
    Entry& e = heap_[i];
    if (e.time == time && e.key == key) return;
    const bool earlier = time < e.time || (time == e.time && key < e.key);
    e.time = time;
    e.key = key;
    if (earlier) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  /// Removes `slot`'s entry (the shard went empty). No-op when absent.
  void clear(std::uint32_t slot) {
    const std::uint32_t i = pos_[slot];
    if (i == kAbsent) return;
    pos_[slot] = kAbsent;
    const std::uint32_t last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (i != last) {
      heap_[i] = heap_[last];
      pos_[heap_[i].slot] = i;
      heap_.pop_back();
      // The moved entry may need to travel either direction.
      sift_up(i);
      sift_down(i);
    } else {
      heap_.pop_back();
    }
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t key;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void sift_up(std::uint32_t i) {
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      swap_entries(i, parent);
      i = parent;
    }
  }

  void sift_down(std::uint32_t i) {
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t best = i;
      const std::uint32_t left = 2 * i + 1;
      const std::uint32_t right = 2 * i + 2;
      if (left < n && before(heap_[left], heap_[best])) best = left;
      if (right < n && before(heap_[right], heap_[best])) best = right;
      if (best == i) return;
      swap_entries(i, best);
      i = best;
    }
  }

  void swap_entries(std::uint32_t a, std::uint32_t b) noexcept {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a].slot] = a;
    pos_[heap_[b].slot] = b;
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;  ///< slot -> heap index, kAbsent if out
};

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
  /// scheduling. The network's delivery hand-off lanes rank their
  /// entries with these. They share the event stream rather than count
  /// on their own because event shard placement is `seq`-based: the
  /// interleaving of hand-off and event sequences is part of every
  /// windowed fingerprint.
  [[nodiscard]] std::uint64_t allocate_seq() noexcept { return next_seq_++; }

  template <typename F>
  EventId emplace(SimTime time, F&& f) {
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t shard = shard_of_seq(seq);
    const EventId id = shards_[shard].emplace_with_seq(seq, time, std::forward<F>(f));
    note_push(shard);
    return id;
  }

  EventId push(SimTime time, EventAction action);

  /// Pushes every deferred emission in order and clears the batch —
  /// same contract as EventQueue::push_all, with sequences drawn from
  /// the shared global stream.
  void push_all(std::vector<EventQueue::Deferred>& batch);

  bool cancel(EventId id) noexcept;

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_live_; }

  /// Bytes held by the shard queues and their window lists.
  [[nodiscard]] std::size_t approx_bytes() const noexcept;

  /// Earliest pending event time across all shards (the window
  /// anchor); false when empty.
  bool next_time(SimTime& time) const;

  /// Phase A (forkable, one worker per shard): pops shard `shard`'s
  /// events due at or before `limit` into its private window list.
  /// Queue-local heap/slot state only — workers must not touch meta_,
  /// live_ or any counter; finish_window() settles those serially.
  void collect_window(std::uint32_t shard, SimTime limit);

  /// Serial post-fork settlement: refreshes every shard's meta entry
  /// and accounts the window (skew-stalled shards, per-shard lead
  /// histogram of collected events vs `anchor` on `grid_s` buckets).
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

  void note_push(std::uint32_t shard);
  /// Re-derives `shard`'s meta entry from its queue head (or clears it).
  void refresh_meta(std::uint32_t shard);

  std::vector<EventQueue> shards_;
  MetaHeap meta_;
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
