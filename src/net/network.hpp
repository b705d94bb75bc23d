#pragma once
// Message delivery engine: charges traffic, applies pairwise latency,
// and hands the payload callback to the simulator. Node-level protocol
// logic lives above this layer (overlay/, core/); the network knows
// nothing about segments or DHT semantics.
//
// Two delivery modes, selected by the LatencyModel's grid:
//
//   continuous (grid 0, the paper's model) — every send schedules its
//   own simulator event at the exact latency instant. No two
//   deliveries share an instant, so delivery handlers run serially.
//
//   quantized (grid > 0) — delivery instants snap UP to the latency
//   grid, so all deliveries landing on one grid point form a batch,
//   filed in one bucket map on both engines. On the exact engine the
//   bucket hides behind ONE proxy event; on the windowed engine the
//   simulator's per-window frontier sweep fires it instead. When it
//   fires, sharded deliveries are grouped by receiver and forked
//   across the session's ParallelExecutor. Workers run their
//   receivers' handlers in schedule order (per-pair FIFO is preserved
//   — a receiver's deliveries never split across shards) and buffer
//   everything they may not do from a worker thread; the join settles
//   those buffers in shard order, so the result is bit-identical at
//   every thread count.
//
// send() keeps the serial handler contract in both modes (quantized
// mode merely snaps its instant); send_sharded()/post_sharded() carry
// the handlers that fork, and hand them a DeliveryContext in either
// mode — immediate in continuous mode, per-shard in quantized mode.

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/delivery.hpp"
#include "net/latency_model.hpp"
#include "net/message.hpp"
#include "net/traffic.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace continu::fault {
class FaultInjector;
}

namespace continu::obs {
class PhaseProfiler;
class TraceSink;
}  // namespace continu::obs

namespace continu::net {

/// One delivery awaiting its grid instant: receiver, liveness-filter
/// class, and the handler.
struct HandoffEntry {
  std::uint32_t to = 0;
  bool filtered = true;  ///< wire message (liveness-checked) vs local
  DeliveryAction action;
};

class Network {
 public:
  /// Session-installed callbacks bracketing a forked bucket dispatch.
  /// The network cannot know the session's stats type, so the session
  /// provides per-shard scratch pointers and the reduction points.
  struct ShardHooks {
    /// Called before the fork with the shard count (resize scratch).
    std::function<void(std::size_t shards)> on_fork;
    /// Per-shard scratch pointer, valid between on_fork and on_join.
    std::function<void*(std::size_t shard)> scratch;
    /// Called at the join, before deferred work runs: reduce the
    /// per-shard scratch into shared state, in shard order.
    std::function<void(std::size_t shards)> on_join;
    /// Scratch handed to immediate-mode contexts (continuous-mode
    /// deliveries): typically the live stats object itself.
    void* serial_scratch = nullptr;
  };

  /// `exec` runs the forked bucket dispatches of quantized mode; a
  /// one-thread executor runs them inline through the same shard
  /// decomposition, so results match at every width.
  Network(sim::Simulator& sim, sim::parallel::ParallelExecutor& exec,
          LatencyModel latency);

  /// Sends a message of `type` and `bits` from `from` to `to`; runs
  /// `on_delivery` after the one-way latency (+ extra_delay, e.g. the
  /// payload transfer time computed by the sender's rate controller).
  /// Dropped silently if a drop filter rejects the destination (dead
  /// node) — exactly like a UDP packet into the void. The handler runs
  /// SERIALLY in both modes (quantized mode only snaps the instant);
  /// use send_sharded for handlers that obey the receiver-shard
  /// ownership contract.
  ///
  /// Templated so the delivery capture is stored FLAT inside the
  /// scheduled event (callback + 16 bytes of filter state), keeping
  /// the whole send path allocation-free for inline-sized callbacks.
  template <typename F>
  void send(std::size_t from, std::size_t to, MessageType type, Bits bits,
            F&& on_delivery, SimTime extra_delay = 0.0) {
    static_assert(sizeof(Delivery<std::decay_t<F>>) <=
                      sim::EventAction::kInlineCapacity,
                  "delivery capture exceeds the inline event-action buffer; "
                  "shrink the capture (pack indices) or bump kInlineCapacity");
    // Traffic is charged at send time: the bits hit the wire whether or
    // not the destination is still alive (and whether or not the fault
    // injector eats it — a lost message still cost its sender).
    traffic_.charge(traffic_class_of(type), bits);
    SimTime delay = latency_.latency_s(from, to) + extra_delay;
    if (fault_ != nullptr && !apply_faults(from, to, delay)) return;
    if (grid_s_ > 0.0) {
      sim_.schedule_at(
          quantize_up_s(sim_.now() + delay),
          Delivery<std::decay_t<F>>{this, to, std::forward<F>(on_delivery)});
    } else {
      sim_.schedule_in(
          delay, Delivery<std::decay_t<F>>{this, to, std::forward<F>(on_delivery)});
    }
  }

  /// Like send(), but the handler takes a DeliveryContext& and obeys
  /// the receiver-shard ownership contract (see delivery.hpp). In
  /// quantized mode the delivery joins its grid bucket and may run on
  /// a worker shard; in continuous mode it runs serially with an
  /// immediate context — bit-identical to a send() of the same logic.
  template <typename F>
  void send_sharded(std::size_t from, std::size_t to, MessageType type, Bits bits,
                    F&& on_delivery, SimTime extra_delay = 0.0) {
    traffic_.charge(traffic_class_of(type), bits);
    SimTime delay = latency_.latency_s(from, to) + extra_delay;
    if (fault_ != nullptr && !apply_faults(from, to, delay)) return;
    if (grid_s_ > 0.0) {
      enqueue_sharded(static_cast<std::uint32_t>(to),
                      quantize_up_s(sim_.now() + delay),
                      DeliveryAction(std::forward<F>(on_delivery)),
                      /*filtered=*/true);
    } else {
      static_assert(sizeof(ShardedDelivery<std::decay_t<F>>) <=
                        sim::EventAction::kInlineCapacity,
                    "sharded delivery capture exceeds the inline event-action "
                    "buffer; shrink the capture (pack indices)");
      sim_.schedule_in(delay,
                       ShardedDelivery<std::decay_t<F>>{
                           this, static_cast<std::uint32_t>(to),
                           std::forward<F>(on_delivery)});
    }
  }

  /// Schedules a LOCAL sharded continuation on receiver `to` at
  /// absolute time `when` — no wire charge, no liveness filter (the
  /// handler guards its own aliveness, like any local event). Stage 3
  /// of the fluid transfer model (downlink completion) rides this, so
  /// delivery completions fork alongside arrivals in quantized mode.
  template <typename F>
  void post_sharded(std::size_t to, SimTime when, F&& handler) {
    if (grid_s_ > 0.0) {
      enqueue_sharded(static_cast<std::uint32_t>(to), quantize_up_s(when),
                      DeliveryAction(std::forward<F>(handler)),
                      /*filtered=*/false);
    } else {
      static_assert(sizeof(ImmediateInvoke<std::decay_t<F>>) <=
                        sim::EventAction::kInlineCapacity,
                    "sharded continuation capture exceeds the inline "
                    "event-action buffer; shrink the capture");
      sim_.schedule_at(when, ImmediateInvoke<std::decay_t<F>>{
                                 this, std::forward<F>(handler)});
    }
  }

  /// Charges traffic for a message without scheduling delivery (used
  /// for locally-absorbed costs like the last routing hop's reply).
  void charge_only(MessageType type, Bits bits);

  /// Bulk variant: charges `messages` same-typed messages of
  /// `bits_each` in one call. Bit-equivalent to `messages` single
  /// charges — this is how the forked prepare-local phase settles its
  /// per-shard buffer-map wire tallies at the join without touching the
  /// shared account from worker threads.
  void charge_only_bulk(MessageType type, Bits bits_each, std::uint64_t messages);

  /// Installs the liveness filter; return false to drop deliveries.
  /// Called from worker shards during a forked bucket dispatch, so it
  /// must only read state frozen for the bucket (liveness flags).
  void set_delivery_filter(std::function<bool(std::size_t to)> filter);

  /// Installs the session's fork/join scratch hooks (see ShardHooks).
  void set_shard_hooks(ShardHooks hooks);

  /// Installs the fault injector (nullptr = fault-free). Every wire
  /// send — both network modes, sharded or not — consults it after the
  /// traffic charge and before scheduling: injected loss and partition
  /// drops never reach the event queue, and active latency-spike
  /// episodes stretch the delay before any grid snap. With no injector
  /// installed the send path is bit-identical to a fault-free build.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Installs the session's observability sinks (either may be null =
  /// that pillar is off). The network only ever WRITES obs-owned state
  /// through these — bucket-fire phase brackets into the profiler,
  /// fault-classification events into the trace — so installing them
  /// cannot move a delivery schedule or a fingerprint.
  void set_observability(obs::PhaseProfiler* profiler,
                         obs::TraceSink* trace) noexcept {
    obs_profiler_ = profiler;
    obs_trace_ = trace;
  }

  [[nodiscard]] const TrafficAccount& traffic() const noexcept { return traffic_; }
  [[nodiscard]] TrafficAccount& traffic() noexcept { return traffic_; }
  [[nodiscard]] const LatencyModel& latency() const noexcept { return latency_; }
  [[nodiscard]] LatencyModel& latency() noexcept { return latency_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// True when the latency model carries a quantization grid.
  [[nodiscard]] bool quantized() const noexcept { return grid_s_ > 0.0; }
  /// The delivery grid in seconds (0 in continuous mode).
  [[nodiscard]] SimTime grid_s() const noexcept { return grid_s_; }

  /// Count of messages dropped by the liveness filter (surfaced as
  /// SessionStats::deliveries_dropped — a filter regression is visible
  /// to the fingerprint oracle, not silently swallowed).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Messages eaten by injected iid/burst link loss.
  [[nodiscard]] std::uint64_t fault_lost() const noexcept { return fault_lost_; }
  /// Messages eaten because sender and receiver sat in different
  /// regions of an active partition.
  [[nodiscard]] std::uint64_t fault_partitioned() const noexcept {
    return fault_partitioned_;
  }
  /// Buckets fired in quantized mode (0 in continuous mode).
  [[nodiscard]] std::uint64_t delivery_batches() const noexcept {
    return delivery_batches_;
  }
  /// Deliveries dispatched through bucket batches.
  [[nodiscard]] std::uint64_t batched_deliveries() const noexcept {
    return batched_deliveries_;
  }
  /// Bytes held by deliveries waiting for their grid instant: the
  /// pending buckets' entry capacity (0 in continuous mode, where
  /// deliveries are plain events).
  [[nodiscard]] std::size_t pending_bytes() const noexcept;
  /// Windows whose frontier sweep fired at least one bucket (0 on the
  /// exact engine).
  [[nodiscard]] std::uint64_t lax_handoff_windows() const noexcept {
    return lax_handoff_windows_;
  }

 private:
  friend class DeliveryContext;

  template <typename F>
  struct Delivery {
    Network* net;
    std::size_t to;
    F fn;
    void operator()() {
      if (net->filter_ && !net->filter_(to)) {
        ++net->dropped_;
        return;
      }
      fn();
    }
  };

  /// Continuous-mode wrapper for a sharded handler: filter check, then
  /// invoke with an immediate context.
  template <typename F>
  struct ShardedDelivery {
    Network* net;
    std::uint32_t to;
    F fn;
    void operator()() {
      if (net->filter_ && !net->filter_(to)) {
        ++net->dropped_;
        return;
      }
      DeliveryContext ctx(net, 0, net->hooks_.serial_scratch, nullptr);
      fn(ctx);
    }
  };

  /// Continuous-mode wrapper for a local sharded continuation (no
  /// filter — mirrors a plain scheduled event).
  template <typename F>
  struct ImmediateInvoke {
    Network* net;
    F fn;
    void operator()() {
      DeliveryContext ctx(net, 0, net->hooks_.serial_scratch, nullptr);
      fn(ctx);
    }
  };

  struct Bucket {
    std::vector<HandoffEntry> entries;
  };
  /// Receiver group: indices into the bucket's entry list, in schedule
  /// order, for one receiver.
  struct ReceiverGroup {
    std::uint32_t to = 0;
    std::vector<std::uint32_t> entry_indices;
  };

  [[nodiscard]] SimTime quantize_up_s(SimTime t) const {
    return std::ceil(t / grid_s_) * grid_s_;
  }

  /// Consults the installed fault injector for one wire send. Returns
  /// false when the message is eaten (loss or partition — counted by
  /// cause); otherwise adds any active spike latency to `delay`.
  /// Out-of-line so the templated send paths need only the injector's
  /// forward declaration.
  bool apply_faults(std::size_t from, std::size_t to, SimTime& delay);

  /// Appends a delivery to its grid bucket, creating the bucket on
  /// first use — and, on the exact engine, its proxy event.
  void enqueue_sharded(std::uint32_t to, SimTime when, DeliveryAction action,
                       bool filtered);
  /// Proxy-event body: detaches the bucket at `time` and dispatches it.
  void fire_bucket(SimTime time);
  /// Frontier-hook body (windowed engine): detaches EVERY bucket whose
  /// instant is <= limit, then dispatches them in time order, each
  /// behind a begin_instant(t) clock stamp. Buckets created during the
  /// sweep wait for the next window. Returns instants dispatched.
  std::size_t fire_frontier_window(
      SimTime limit, const std::function<void(SimTime)>& begin_instant);
  /// Groups by receiver, forks across shards, settles the join.
  void dispatch_bucket(std::vector<HandoffEntry>& entries);

  sim::Simulator& sim_;
  sim::parallel::ParallelExecutor& exec_;
  LatencyModel latency_;
  TrafficAccount traffic_;
  std::function<bool(std::size_t)> filter_;
  std::uint64_t dropped_ = 0;

  // --- fault injection ---------------------------------------------------
  fault::FaultInjector* fault_ = nullptr;
  std::uint64_t fault_lost_ = 0;
  std::uint64_t fault_partitioned_ = 0;

  // --- observability (null = off) -----------------------------------------
  obs::PhaseProfiler* obs_profiler_ = nullptr;
  obs::TraceSink* obs_trace_ = nullptr;

  // --- quantized mode ----------------------------------------------------
  /// Receivers per shard of a bucket dispatch. Small on purpose: a
  /// 1 ms bucket of a static_8k session carries on the order of a
  /// hundred receivers, and the grain bounds both the shard count and
  /// the per-shard imbalance.
  static constexpr std::size_t kReceiverGrain = 8;
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  SimTime grid_s_ = 0.0;
  ShardHooks hooks_;
  /// Pending buckets by fire time, on both engines. Ordered because
  /// the windowed engine's sweep detaches from the front; the exact
  /// engine only looks buckets up (each owns a proxy event). There are
  /// thousands of pending buckets at scale (up to 3.4k-3.8k on
  /// q1_static_8k: one per occupied grid step, seconds ahead), yet a
  /// lookup is one per enqueue, far below the cost of the delivery it
  /// files. A bucket's entry vector lives from its first enqueue until
  /// it is dispatched, so the pending memory is the live deliveries.
  std::map<SimTime, Bucket> buckets_;
  /// Dispatch scratch, reused across buckets.
  std::vector<ReceiverGroup> groups_;
  std::size_t groups_used_ = 0;
  std::vector<std::uint32_t> group_slot_;
  std::vector<DeliveryShardScratch> shard_scratch_;
  std::uint64_t delivery_batches_ = 0;
  std::uint64_t batched_deliveries_ = 0;
  std::uint64_t lax_handoff_windows_ = 0;
};

/// Immediate-mode forward: defined here (not in delivery.hpp) because
/// it needs the full Network type. In quantized-fork mode the context
/// buffers instead, so this template only instantiates the
/// continuous-mode path.
template <typename F>
void DeliveryContext::forward(std::size_t to, SimTime when, F&& handler) {
  if (scratch_buf_ != nullptr) {
    scratch_buf_->forwards.push_back(LocalForward{
        static_cast<std::uint32_t>(to), when,
        DeliveryAction(std::forward<F>(handler))});
  } else {
    net_->post_sharded(to, when, std::forward<F>(handler));
  }
}

}  // namespace continu::net
