#pragma once
// Sharded delivery plumbing for the quantized network mode.
//
// In quantized mode the Network collects every delivery landing on one
// latency-grid point into a bucket and, at the bucket boundary, forks
// the batch across receiver shards. A handler that participates takes
// a DeliveryContext& instead of running bare: the context tells it
// which shard it is on (the index into the host's per-shard stats
// scratch, which the host reduces at the join before any deferred work
// runs) and buffers everything the handler may NOT do from a worker
// thread (event scheduling, network sends, cross-node writes) for the
// join to settle in shard order — the same deferred-emission contract
// the forked prepare-local and plan phases follow.
//
// DeliveryAction is the storage for such handlers: sim::InlineAction
// invoked as void(DeliveryContext&), so buffering a delivery allocates
// nothing for inline-sized captures.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/types.hpp"

namespace continu::net {

class Network;
class DeliveryContext;

/// Storage for a sharded delivery handler: EventAction's small-buffer
/// callable, invoked with the handler's context.
using DeliveryAction = sim::InlineAction<DeliveryContext&>;

/// A sharded continuation recorded by DeliveryContext::forward — a
/// local (no wire charge, no liveness filter) delivery to run at
/// `when` on receiver `to`'s shard.
struct LocalForward {
  std::uint32_t to = 0;
  SimTime when = 0.0;
  DeliveryAction action;
};

/// Per-shard buffers a worker fills during a forked bucket dispatch;
/// the join drains them in shard order.
struct DeliveryShardScratch {
  /// Join-deferred operations: network sends, push relays — anything
  /// that touches shared engine state. Run directly (not scheduled) at
  /// the join, so the immediate-mode equivalent is an inline call.
  std::vector<sim::EventAction> deferred;
  /// Sharded continuations (stage-3 fluid-model deliveries).
  std::vector<LocalForward> forwards;
  /// Deliveries this shard's liveness filter dropped. Their actions are
  /// destroyed at the join, serially and in shard order, because a
  /// capture may hold a handle into the host's serial pools.
  std::vector<DeliveryAction*> dropped;
  void reset() noexcept {
    deferred.clear();
    forwards.clear();
    dropped.clear();
  }
};

/// Execution context handed to a sharded delivery handler.
///
/// Receiver-shard ownership contract: a handler invoked with a
/// parallel() context runs on a worker thread and may write ONLY the
/// receiving node's own state (buffers, in-flight tables, link-rate
/// estimators, neighbor supply fields, up/downlink bookings) plus the
/// host's per-shard scratch at index shard(), which the DeliveryHost
/// reduces in shard order at the join, before any deferred work runs.
/// Cross-node reads are limited to state frozen for the whole bucket
/// (liveness flags, inbound rates, other nodes' buffer windows).
/// Everything else — event scheduling, network sends, cross-node
/// writes, shared-RNG draws — goes through defer()/forward(), which the
/// join settles serially in shard order.
///
/// In continuous mode the context is "immediate": defer() runs its
/// argument inline and forward() schedules directly, so a handler
/// written against this API executes bit-identically to its
/// pre-context serial form.
class DeliveryContext {
 public:
  /// Shard index (0 in immediate mode).
  [[nodiscard]] std::size_t shard() const noexcept { return shard_; }

  /// True when running forked on a worker shard.
  [[nodiscard]] bool parallel() const noexcept { return scratch_buf_ != nullptr; }

  /// Defers `f` to the join (shard order, record order within the
  /// shard); runs it inline in immediate mode.
  template <typename F>
  void defer(F&& f) {
    if (scratch_buf_ != nullptr) {
      scratch_buf_->deferred.emplace_back(std::forward<F>(f));
    } else {
      f();
    }
  }

  /// Schedules a local sharded continuation for receiver `to` at
  /// absolute time `when` (snapped to the latency grid in quantized
  /// mode). No wire charge, no liveness filter — the handler guards
  /// its own aliveness like any local event. Defined in network.hpp
  /// (the immediate-mode path needs the full Network type).
  template <typename F>
  void forward(std::size_t to, SimTime when, F&& handler);

 private:
  friend class Network;
  DeliveryContext(Network* net, std::size_t shard, DeliveryShardScratch* buf) noexcept
      : net_(net), shard_(shard), scratch_buf_(buf) {}

  Network* net_;
  std::size_t shard_;
  DeliveryShardScratch* scratch_buf_;
};

}  // namespace continu::net
