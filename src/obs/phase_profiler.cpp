#include "obs/phase_profiler.hpp"

#include "obs/trace_sink.hpp"

namespace continu::obs {

void PhaseProfiler::record_serial(Phase phase, std::uint64_t t0_ns,
                                  std::uint64_t t1_ns) {
  PhaseTotals& totals = totals_[static_cast<std::size_t>(phase)];
  totals.serial_ns += t1_ns - t0_ns;
  ++totals.serial_spans;
  if (span_sink_ != nullptr) {
    span_sink_->record_span(phase, kSerialSpanShard, t0_ns, t1_ns);
  }
}

void PhaseProfiler::on_fork(Phase phase, std::size_t items, std::size_t shards) {
  current_ = phase;
  ++hist_[static_cast<std::size_t>(phase)][histogram_bucket(items)];
  fork_shards_ = shards;
  if (slots_.size() < shards) slots_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) slots_[s] = ShardSlot{};
}

void PhaseProfiler::on_shard_done(std::size_t shard, std::uint64_t t0_ns,
                                  std::uint64_t t1_ns) {
  // Worker context: `shard` slots are disjoint, and the executor's join
  // happens-before on_join's reads.
  slots_[shard].t0_ns = t0_ns;
  slots_[shard].t1_ns = t1_ns;
}

void PhaseProfiler::on_join(std::uint64_t fork_t0_ns, std::uint64_t join_t1_ns) {
  PhaseTotals& totals = totals_[static_cast<std::size_t>(current_)];
  ++totals.forks;
  totals.fork_wall_ns += join_t1_ns - fork_t0_ns;
  std::uint64_t work = 0;
  std::uint64_t max_shard = 0;
  for (std::size_t s = 0; s < fork_shards_; ++s) {
    const std::uint64_t busy = slots_[s].t1_ns - slots_[s].t0_ns;
    work += busy;
    if (busy > max_shard) max_shard = busy;
    if (span_sink_ != nullptr) {
      span_sink_->record_span(current_, static_cast<std::uint32_t>(s),
                              slots_[s].t0_ns, slots_[s].t1_ns);
    }
  }
  totals.forked_work_ns += work;
  totals.shards_run += fork_shards_;
  totals.max_shard_ns += max_shard;
  if (fork_shards_ > 0) {
    totals.mean_shard_ns +=
        static_cast<double>(work) / static_cast<double>(fork_shards_);
  }
}

ProfileReport PhaseProfiler::report() const {
  ProfileReport out;
  out.threads = threads_;
  out.phases = totals_;
  out.batch_hist = hist_;
  AmdahlEstimate& amdahl = out.amdahl;
  amdahl.run_wall_ns = run_wall_ns_;
  for (const PhaseTotals& totals : totals_) {
    amdahl.fork_wall_ns += totals.fork_wall_ns;
    amdahl.forked_work_ns += totals.forked_work_ns;
  }
  amdahl.serial_ns = run_wall_ns_ > amdahl.fork_wall_ns
                         ? run_wall_ns_ - amdahl.fork_wall_ns
                         : 0;
  const double denom =
      static_cast<double>(amdahl.serial_ns) + static_cast<double>(amdahl.forked_work_ns);
  amdahl.serial_fraction =
      denom > 0.0 ? static_cast<double>(amdahl.serial_ns) / denom : 1.0;
  return out;
}

}  // namespace continu::obs
