#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault_injector.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/trace_sink.hpp"

namespace continu::net {

Network::Network(sim::Simulator& sim, LatencyModel latency)
    : sim_(sim),
      latency_(std::move(latency)),
      grid_s_(latency_.grid_ms() / 1000.0) {
  // Quantized mode on the windowed engine: hand-offs park in per-lane
  // heaps instead of proxy-evented buckets, and the simulator sweeps
  // them once per window.
  if (grid_s_ > 0.0 && sim_.windowed()) {
    lanes_ = std::make_unique<DeliveryLanes>();
    sim::Simulator::FrontierHook hook;
    hook.next_time = [this](SimTime& time) { return lanes_->next_time(time); };
    hook.dispatch_window = [this](SimTime limit,
                                  const std::function<void(SimTime)>& begin) {
      return fire_frontier_window(limit, begin);
    };
    sim_.set_frontier_hook(std::move(hook));
  }
}

void Network::charge_only(MessageType type, Bits bits) {
  traffic_.charge(traffic_class_of(type), bits);
}

void Network::charge_only_bulk(MessageType type, Bits bits_each,
                               std::uint64_t messages) {
  if (messages == 0) return;
  traffic_.charge(traffic_class_of(type), bits_each * messages, messages);
}

void Network::set_delivery_filter(std::function<bool(std::size_t)> filter) {
  filter_ = std::move(filter);
}

void Network::set_shard_hooks(ShardHooks hooks) { hooks_ = std::move(hooks); }

bool Network::apply_faults(std::size_t from, std::size_t to, SimTime& delay) {
  // Fault classification happens on the serial send path, so the trace
  // records ride ring 0. Obs-owned writes only — recording an eaten
  // message does not change that it is eaten.
  switch (fault_->classify(from, to, sim_.now())) {
    case fault::FaultInjector::Fate::kLoss:
      ++fault_lost_;
      if (obs_trace_ != nullptr) {
        obs::TraceEvent event;
        event.time = sim_.now();
        event.kind = obs::TraceEventKind::kFaultLoss;
        event.node = static_cast<std::uint32_t>(to);
        event.peer = static_cast<std::uint32_t>(from);
        obs_trace_->record_serial(event);
      }
      return false;
    case fault::FaultInjector::Fate::kPartition:
      ++fault_partitioned_;
      if (obs_trace_ != nullptr) {
        obs::TraceEvent event;
        event.time = sim_.now();
        event.kind = obs::TraceEventKind::kFaultPartition;
        event.node = static_cast<std::uint32_t>(to);
        event.peer = static_cast<std::uint32_t>(from);
        obs_trace_->record_serial(event);
      }
      return false;
    case fault::FaultInjector::Fate::kDeliver:
      break;
  }
  delay += fault_->extra_latency_s(sim_.now());
  return true;
}

void Network::enqueue_sharded(std::uint32_t to, SimTime when,
                              DeliveryAction action, bool filtered) {
  // A bucket entirely in the past would never fire (its proxy clamps
  // to now, which is fine); entries targeting the current instant land
  // in a bucket whose proxy fires later within this instant.
  if (when < sim_.now()) when = sim_.now();
  if (lanes_ != nullptr) {
    // Windowed engine: rank the hand-off with a sequence from the
    // global stream, so entries at one instant merge in send order —
    // the order the exact engine's bucket vector holds them in.
    lanes_->enqueue(to, filtered, when, sim_.allocate_seq(), std::move(action));
    return;
  }
  auto [it, inserted] = buckets_.try_emplace(when);
  if (inserted) {
    // One proxy event per bucket, scheduled at bucket creation — its
    // sequence number (and thus its order among same-instant events)
    // is a pure function of the delivery schedule.
    const SimTime time = when;
    sim_.schedule_at(time, [this, time] { fire_bucket(time); });
  }
  it->second.entries.push_back(ShardedEntry{to, filtered, std::move(action)});
}

void Network::fire_bucket(SimTime time) {
  const auto it = buckets_.find(time);
  if (it == buckets_.end()) return;  // defensive: bucket map out of sync
  // The entry vector dies with this call. Do not recycle it into a
  // later bucket: every pending bucket would inherit the largest
  // capacity any bucket reached, and memory would track that maximum
  // instead of the live deliveries.
  std::vector<ShardedEntry> entries = std::move(it->second.entries);
  buckets_.erase(it);
  dispatch_bucket(entries);
}

std::size_t Network::pending_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [time, bucket] : buckets_) {
    bytes += bucket.entries.capacity() * sizeof(ShardedEntry);
  }
  if (lanes_ != nullptr) bytes += lanes_->approx_bytes();
  return bytes;
}

std::size_t Network::fire_frontier_window(
    SimTime limit, const std::function<void(SimTime)>& begin_instant) {
  SimTime head_time = 0.0;
  if (!lanes_->next_time(head_time) || head_time > limit) return 0;
  ++lax_handoff_windows_;
  constexpr unsigned nlanes = DeliveryLanes::kLanes;
  // Phase A: per-lane pops of EVERY instant in the window. Each lane
  // touches only its own heap and due list, so the pops fork across the
  // session executor (one lane per shard — thread-count independent by
  // construction); the inline fallback walks the identical
  // decomposition.
  if (obs_profiler_ != nullptr) {
    obs_profiler_->begin_fork_phase(obs::Phase::kLaxDrain, nlanes);
  }
  const auto body = [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t lane = begin; lane < end; ++lane) {
      lanes_->collect_due_window(static_cast<unsigned>(lane), limit);
    }
  };
  if (exec_ != nullptr) {
    exec_->for_shards(nlanes, /*grain=*/1, body);
  } else {
    body(0, 0, nlanes);
  }
  // Phase B: one serial merge by (time, seq) for the whole window,
  // then each instant's run dispatches through the bucket path at its
  // own clock — within an instant the entry order is send order, the
  // exact engine's bucket order.
  frontier_entries_.clear();
  frontier_times_.clear();
  const std::size_t active = lanes_->merge_due_window(frontier_entries_,
                                                      frontier_times_);
  lax_stalled_lanes_ += nlanes - active;
  std::size_t instants = 0;
  std::size_t begin = 0;
  std::vector<ShardedEntry> batch;
  while (begin < frontier_entries_.size()) {
    const SimTime instant = frontier_times_[begin];
    std::size_t end = begin;
    while (end < frontier_entries_.size() && frontier_times_[end] == instant) {
      ++end;
    }
    begin_instant(instant);
    ++instants;
    batch.clear();
    batch.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(std::move(frontier_entries_[i]));
    }
    dispatch_bucket(batch);
    begin = end;
  }
  frontier_entries_.clear();
  frontier_times_.clear();
  return instants;
}

void Network::dispatch_bucket(std::vector<ShardedEntry>& entries) {
  ++delivery_batches_;
  batched_deliveries_ += entries.size();

  // Group by receiver, first-appearance order: the group list (and so
  // the shard boundaries) is a pure function of the delivery schedule.
  // Within a group, entries keep schedule order — per-pair FIFO holds.
  if (group_slot_.size() < latency_.node_count()) {
    group_slot_.resize(latency_.node_count(), kNoGroup);
  }
  groups_used_ = 0;
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    const std::uint32_t to = entries[i].to;
    std::uint32_t slot = group_slot_[to];
    if (slot == kNoGroup) {
      slot = static_cast<std::uint32_t>(groups_used_);
      if (groups_used_ == groups_.size()) groups_.emplace_back();
      groups_[groups_used_].to = to;
      groups_[groups_used_].entry_indices.clear();
      ++groups_used_;
      group_slot_[to] = slot;
    }
    groups_[slot].entry_indices.push_back(i);
  }
  for (std::size_t g = 0; g < groups_used_; ++g) group_slot_[groups_[g].to] = kNoGroup;

  const std::size_t count = groups_used_;
  const std::size_t shards =
      sim::parallel::ParallelExecutor::shard_count(count, kReceiverGrain);
  if (shards == 0) return;
  if (shard_scratch_.size() < shards) shard_scratch_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) shard_scratch_[s].reset();
  if (obs_trace_ != nullptr) {
    obs::TraceEvent event;
    event.time = sim_.now();
    event.kind = obs::TraceEventKind::kBucketFire;
    event.a = entries.size();
    event.b = count;
    obs_trace_->record_serial(event);
  }
  if (obs_profiler_ != nullptr) {
    obs_profiler_->begin_fork_phase(obs::Phase::kDeliveryBucket, entries.size());
  }
  if (hooks_.on_fork) hooks_.on_fork(shards);

  // Fork. A worker owns a contiguous run of receiver groups; every
  // write it performs lands either in its receivers' own node state
  // (the handler contract) or in its private DeliveryShardScratch.
  const auto body = [&](std::size_t s, std::size_t begin, std::size_t end) {
    DeliveryShardScratch& scratch = shard_scratch_[s];
    void* user = hooks_.scratch ? hooks_.scratch(s) : hooks_.serial_scratch;
    DeliveryContext ctx(this, s, user, &scratch);
    for (std::size_t g = begin; g < end; ++g) {
      const ReceiverGroup& group = groups_[g];
      for (const std::uint32_t index : group.entry_indices) {
        ShardedEntry& entry = entries[index];
        if (entry.filtered && filter_ && !filter_(entry.to)) {
          ++scratch.dropped;
          entry.action.reset();
          continue;
        }
        entry.action.consume(ctx);
      }
    }
  };
  if (exec_ != nullptr) {
    exec_->for_shards(count, kReceiverGrain, body);
  } else {
    // Inline fallback with the executor's exact shard decomposition,
    // so a Network used without a pool is still bit-identical to one
    // forked at any width.
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * kReceiverGrain;
      body(s, begin, std::min(count, begin + kReceiverGrain));
    }
  }

  // Join, in shard order. Drops first (pure sums), then the session
  // reduces its stats scratch, then each shard's buffered work runs
  // serially: forwards (stage-3 continuations into future buckets)
  // before deferred operations (sends, relays) — a fixed, thread-count
  // independent replay order.
  for (std::size_t s = 0; s < shards; ++s) dropped_ += shard_scratch_[s].dropped;
  if (hooks_.on_join) hooks_.on_join(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    DeliveryShardScratch& scratch = shard_scratch_[s];
    for (LocalForward& forward : scratch.forwards) {
      enqueue_sharded(forward.to, quantize_up_s(forward.when),
                      std::move(forward.action), /*filtered=*/false);
    }
    for (sim::EventAction& op : scratch.deferred) op.consume();
    scratch.reset();
  }
}

}  // namespace continu::net
