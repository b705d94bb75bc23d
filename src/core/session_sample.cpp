// Session sampling: the per-period continuity, stall and overhead sample.

#include "core/session.hpp"
#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"

namespace continu::core {

void Session::on_sample_tick() {
  const SimTime now = sim_.now();

  // Sharded ordered reduction over all nodes. Each shard accumulates
  // privately (the only cross-node write is resetting a node's OWN
  // round stats); partials merge in shard order, so the alpha_sum
  // floating-point chain is fixed by (node count, grain) alone and the
  // sample is bit-identical at every thread count.
  struct SampleAccum {
    std::uint64_t continuous = 0;
    std::uint64_t counted = 0;
    std::uint64_t played = 0;
    std::uint64_t due = 0;
    std::uint64_t alpha_count = 0;
    std::uint64_t alive = 0;
    std::uint64_t stall_rounds = 0;
    std::uint64_t stall_episodes = 0;
    double alpha_sum = 0.0;
    SampleAccum& operator+=(const SampleAccum& rhs) noexcept {
      continuous += rhs.continuous;
      counted += rhs.counted;
      played += rhs.played;
      due += rhs.due;
      alpha_count += rhs.alpha_count;
      alive += rhs.alive;
      stall_rounds += rhs.stall_rounds;
      stall_episodes += rhs.stall_episodes;
      alpha_sum += rhs.alpha_sum;
      return *this;
    }
  };
  const std::size_t n = nodes_.size();
  std::vector<SampleAccum> partials(
      sim::parallel::ParallelExecutor::shard_count(n, kSweepGrain));
  obs_ensure_shards(partials.size());
  exec_.for_shards(obs::Phase::kSampleSweep, n, kSweepGrain,
                   [this, &partials, now](std::size_t s, std::size_t begin,
                                          std::size_t end) {
                     SampleAccum& acc = partials[s];
                     for (std::size_t i = begin; i < end; ++i) {
                       Node& node = *nodes_[i];
                       if (!node.alive()) continue;
                       ++acc.alive;
                       if (node.is_source()) continue;
                       ++acc.counted;
                       auto& rs = node.round_stats();
                       if (node.buffer().started() && rs.missed == 0 &&
                           rs.played > 0) {
                         ++acc.continuous;
                       }
                       // Stall-episode tracking: a round with a missed
                       // due segment is a stall round; entering one from
                       // a clean round opens an episode, and a round that
                       // played without a miss closes it. Own-node writes
                       // only (the in_stall bit), so it shards safely.
                       const bool stalled = node.buffer().started() && rs.missed > 0;
                       if (stalled) ++acc.stall_rounds;
                       if (node.buffer().started() && (stalled || rs.played > 0) &&
                           stalled != node.in_stall()) {
                         if (stalled) ++acc.stall_episodes;
                         node.set_in_stall(stalled);
                         if (trace_ != nullptr) {
                           obs::TraceEvent event;
                           event.time = now;
                           event.kind = stalled ? obs::TraceEventKind::kStallStart
                                                : obs::TraceEventKind::kStallEnd;
                           event.node = static_cast<std::uint32_t>(i);
                           trace_->record(s, event);
                         }
                         if (obs_counters_ != nullptr) {
                           obs_counters_->add(s, ctr_stall_transitions_, 1);
                         }
                       }
                       acc.played += rs.played;
                       acc.due += rs.played + rs.missed;
                       rs = Node::RoundStats{};
                       acc.alpha_sum += node.urgent_line().alpha();
                       ++acc.alpha_count;
                     }
                   });
  SampleAccum total;
  sim::parallel::reduce_in_order(partials, total);

  const std::uint64_t continuous = total.continuous;
  const std::uint64_t counted = total.counted;
  continuity_.record_round(now, continuous, counted);
  collector_.record("continuity", now,
                    counted == 0 ? 0.0
                                 : static_cast<double>(continuous) /
                                       static_cast<double>(counted));
  // The per-SEGMENT "continuity index" other papers report (Section
  // 5.3): fraction of due segments that arrived in time this round.
  // Always >= the paper's strict node-level metric — recorded so the
  // two can be compared directly (see bench_fig5/6 and EXPERIMENTS.md).
  collector_.record("continuity_index", now,
                    total.due == 0 ? 0.0
                                   : static_cast<double>(total.played) /
                                         static_cast<double>(total.due));
  if (total.alpha_count > 0) {
    collector_.record("alpha_mean", now,
                      total.alpha_sum / static_cast<double>(total.alpha_count));
  }

  // Per-round overhead deltas and cumulative ratios.
  const auto& traffic = network_.traffic();
  const auto delta = traffic.since(last_traffic_snapshot_);
  collector_.record("control_overhead_round", now, delta.control_overhead());
  collector_.record("prefetch_overhead_round", now, delta.prefetch_overhead());
  collector_.record("control_overhead_cumulative", now, traffic.control_overhead());
  collector_.record("prefetch_overhead_cumulative", now, traffic.prefetch_overhead());
  collector_.record("alive_nodes", now, static_cast<double>(total.alive));
  stats_.stall_rounds += total.stall_rounds;
  stats_.stall_episodes += total.stall_episodes;
  // Stalled-node series: only recorded when faults or hardening are in
  // play, so the zero-fault collector output (and its fingerprint fold)
  // is unchanged.
  if (fault_injector_ != nullptr || hardened_) {
    collector_.record("stalled_nodes", now,
                      static_cast<double>(total.stall_rounds));
  }
  last_traffic_snapshot_ = traffic;
}

}  // namespace continu::core
