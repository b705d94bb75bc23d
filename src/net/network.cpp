#include "net/network.hpp"

#include <utility>

#include "fault/fault_injector.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/trace_sink.hpp"

namespace continu::net {

Network::Network(sim::Simulator& sim, sim::parallel::ParallelExecutor& exec,
                 LatencyModel latency)
    : sim_(sim),
      exec_(exec),
      latency_(std::move(latency)),
      grid_s_(latency_.grid_ms() / 1000.0) {
  // Quantized mode on the windowed engine: buckets get no proxy event;
  // the simulator sweeps them once per window instead.
  if (grid_s_ > 0.0 && sim_.windowed()) {
    sim::Simulator::FrontierHook hook;
    hook.next_time = [this](SimTime& time) {
      if (buckets_.empty()) return false;
      time = buckets_.begin()->first;
      return true;
    };
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
  auto [it, inserted] = buckets_.try_emplace(when);
  if (sim_.windowed()) {
    // No proxy: the frontier sweep fires the bucket. The sequence is
    // still drawn, one per hand-off, because event shard placement is
    // `seq & 7` — skipping the draw would move every later event to
    // another shard and change every windowed fingerprint.
    (void)sim_.allocate_seq();
  } else if (inserted) {
    // One proxy event per bucket, scheduled at bucket creation — its
    // sequence number (and thus its order among same-instant events)
    // is a pure function of the delivery schedule.
    const SimTime time = when;
    sim_.schedule_at(time, [this, time] { fire_bucket(time); });
  }
  it->second.entries.push_back(HandoffEntry{to, filtered, std::move(action)});
}

void Network::fire_bucket(SimTime time) {
  const auto it = buckets_.find(time);
  if (it == buckets_.end()) return;  // defensive: bucket map out of sync
  // The entry vector dies with this call. Do not recycle it into a
  // later bucket: every pending bucket would inherit the largest
  // capacity any bucket reached, and memory would track that maximum
  // instead of the live deliveries.
  std::vector<HandoffEntry> entries = std::move(it->second.entries);
  buckets_.erase(it);
  dispatch_bucket(entries);
}

std::size_t Network::pending_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [time, bucket] : buckets_) {
    bytes += bucket.entries.capacity() * sizeof(HandoffEntry);
  }
  return bytes;
}

std::size_t Network::fire_frontier_window(
    SimTime limit, const std::function<void(SimTime)>& begin_instant) {
  // Detach every due bucket BEFORE dispatching any: a forward or send
  // made during the sweep then files into a fresh bucket that fires in
  // the next window, even when its instant is <= limit. Dispatching in
  // place would let it join a bucket still pending in this sweep.
  std::map<SimTime, Bucket> due;
  while (!buckets_.empty() && buckets_.begin()->first <= limit) {
    due.insert(buckets_.extract(buckets_.begin()));
  }
  if (due.empty()) return 0;
  ++lax_handoff_windows_;
  for (auto& [instant, bucket] : due) {
    begin_instant(instant);
    dispatch_bucket(bucket.entries);
  }
  return due.size();
}

void Network::dispatch_bucket(std::vector<HandoffEntry>& entries) {
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
        HandoffEntry& entry = entries[index];
        if (entry.filtered && filter_ && !filter_(entry.to)) {
          ++scratch.dropped;
          entry.action.reset();
          continue;
        }
        entry.action.consume(ctx);
      }
    }
  };
  exec_.for_shards(count, kReceiverGrain, body);

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
