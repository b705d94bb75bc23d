#include "net/network.hpp"

#include <utility>

#include "fault/fault_injector.hpp"
#include "obs/trace_sink.hpp"

namespace continu::net {

Network::Network(sim::Simulator& sim, sim::parallel::ParallelExecutor& exec,
                 LatencyModel latency, DeliveryHost* host)
    : sim_(sim),
      exec_(exec),
      latency_(std::move(latency)),
      host_(host),
      grid_s_(latency_.grid_ms() / 1000.0),
      buckets_(grid_s_) {
  // Quantized mode on the windowed engine: buckets get no proxy event;
  // the simulator sweeps them once per window instead.
  if (grid_s_ > 0.0 && sim_.windowed()) sim_.set_frontier(*this);
}

void Network::charge_only(MessageType type, Bits bits) {
  traffic_.charge(traffic_class_of(type), bits);
}

void Network::charge_only_bulk(MessageType type, Bits bits_each,
                               std::uint64_t messages) {
  if (messages == 0) return;
  traffic_.charge(traffic_class_of(type), bits_each * messages, messages);
}

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
  const bool created = buckets_.append(when, to, filtered, std::move(action));
  if (sim_.windowed()) {
    // No proxy: the frontier sweep fires the bucket. The sequence is
    // still drawn, one per hand-off, because event shard placement is
    // `seq & 7` — skipping the draw would move every later event to
    // another shard and change every windowed fingerprint.
    (void)sim_.allocate_seq();
  } else if (created) {
    // One proxy event per bucket, scheduled at bucket creation — its
    // sequence number (and thus its order among same-instant events)
    // is a pure function of the delivery schedule.
    sim_.schedule_at(when, [this, when] { fire_bucket(when); });
  }
}

void Network::fire_bucket(SimTime time) {
  BucketRing::Batch batch = buckets_.take(time);
  dispatch_bucket(batch);
}

bool Network::next_time(SimTime& time) const { return buckets_.earliest(time); }

std::size_t Network::dispatch_window(SimTime limit) {
  // Detach every due bucket BEFORE dispatching any: a forward or send
  // made during the sweep then files into a fresh bucket that fires in
  // the next window, even when its instant is <= limit. Dispatching in
  // place would let it join a bucket still pending in this sweep.
  due_.clear();
  buckets_.take_through(limit, due_);
  if (due_.empty()) return 0;
  ++lax_handoff_windows_;
  std::size_t next = 0;
  try {
    for (; next < due_.size(); ++next) {
      begin_instant(sim_, due_[next].time);
      dispatch_bucket(due_[next]);
    }
  } catch (...) {
    // dispatch_bucket disposed of the batch that threw; the rest never ran.
    for (++next; next < due_.size(); ++next) buckets_.discard(due_[next]);
    throw;
  }
  return due_.size();
}

void Network::dispatch_bucket(BucketRing::Batch& batch) {
  ++delivery_batches_;
  batched_deliveries_ += batch.list.count;
  std::vector<HandoffEntry*>& entries = batch_entries_;
  buckets_.entries(batch, entries);

  // Group by receiver, first-appearance order: the group list (and so
  // the shard boundaries) is a pure function of the delivery schedule.
  // Within a group, entries keep schedule order — per-pair FIFO holds.
  if (group_slot_.size() < latency_.node_count()) {
    group_slot_.resize(latency_.node_count(), kNoGroup);
  }
  groups_used_ = 0;
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    const std::uint32_t to = entries[i]->to;
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
  if (shards == 0) {
    buckets_.release(batch);
    return;
  }
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
  if (host_ != nullptr) host_->before_fork(shards);

  // Fork. A worker owns a contiguous run of receiver groups; every
  // write it performs lands either in its receivers' own node state
  // (the handler contract) or in its private DeliveryShardScratch.
  const auto body = [&](std::size_t s, std::size_t begin, std::size_t end) {
    DeliveryShardScratch& scratch = shard_scratch_[s];
    DeliveryContext ctx(this, s, &scratch);
    for (std::size_t g = begin; g < end; ++g) {
      const ReceiverGroup& group = groups_[g];
      for (const std::uint32_t index : group.entry_indices) {
        HandoffEntry& entry = *entries[index];
        if (entry.filtered && !reachable(entry.to)) {
          scratch.dropped.push_back(&entry.action);
          continue;
        }
        entry.action.consume(ctx);
      }
    }
  };
  try {
    exec_.for_shards(obs::Phase::kDeliveryBucket, count, kReceiverGrain, body);
  } catch (...) {
    buckets_.discard(batch);
    throw;
  }

  // Join, in shard order. Drops first (their captures die here, on the
  // serial path), then the host reduces its stats scratch, then each
  // shard's buffered work runs serially: forwards (stage-3
  // continuations into future buckets) before deferred operations
  // (sends, relays) — a fixed, thread-count independent replay order.
  for (std::size_t s = 0; s < shards; ++s) {
    for (DeliveryAction* action : shard_scratch_[s].dropped) action->reset();
    dropped_ += shard_scratch_[s].dropped.size();
  }
  // Every action is now consumed or reset: the chunks go back to the
  // pool before the replay files new deliveries.
  buckets_.release(batch);
  if (host_ != nullptr) host_->after_join(shards);
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
