#include "runner/experiment_runner.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/hash.hpp"

namespace continu::runner {

std::uint64_t replication_seed(std::uint64_t base, std::size_t index) {
  // Two mix rounds decorrelate (base, index) pairs; +1 keeps index 0 from
  // collapsing to mix64(mix64(base)) == replication 0 of a shifted base.
  return util::mix64(util::mix64(base) ^ (static_cast<std::uint64_t>(index) + 1));
}

std::vector<ReplicationSpec> replicate(const ReplicationSpec& base, std::size_t count,
                                       ReplicateOptions options) {
  if (options.vary_trace_seed && base.snapshot) {
    throw std::invalid_argument(
        "replicate: vary_trace_seed is meaningless with a pre-built snapshot "
        "(the snapshot pins the topology)");
  }
  std::vector<ReplicationSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ReplicationSpec spec = base;
    spec.config.seed = replication_seed(base.config.seed, i);
    if (options.vary_trace_seed) {
      spec.trace.seed = replication_seed(base.trace.seed, i);
    }
    spec.label = base.label.empty() ? ("#" + std::to_string(i))
                                    : (base.label + " #" + std::to_string(i));
    specs.push_back(std::move(spec));
  }
  return specs;
}

ReplicationSpec spec_for(const Scenario& scenario, std::uint64_t seed) {
  ReplicationSpec spec;
  spec.label = scenario.name;
  spec.config = scenario.make_config(seed);
  spec.trace = scenario.make_trace();
  spec.duration = scenario.duration;
  spec.stable_from = scenario.stable_from;
  return spec;
}

ExperimentRunner::ExperimentRunner(unsigned jobs, unsigned session_threads)
    : jobs_(jobs), session_threads_(session_threads) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const unsigned per_session = std::max(1u, session_threads_);
  if (per_session > 1) {
    // Arbitrate: replication workers multiply the intra-session pool,
    // so cap jobs at hw / threads (the explicit intra-session width
    // keeps what it asked for; replication sharding absorbs the cut).
    const unsigned fit = std::max(1u, hw / per_session);
    jobs_ = jobs_ == 0 ? fit : std::min(jobs_, fit);
  } else if (jobs_ == 0) {
    jobs_ = hw;
  }
}

ReplicationResult ExperimentRunner::run_one(const ReplicationSpec& spec) {
  const trace::TraceSnapshot generated =
      spec.snapshot ? trace::TraceSnapshot{} : trace::generate_snapshot(spec.trace);
  const trace::TraceSnapshot& snapshot = spec.snapshot ? *spec.snapshot : generated;
  core::Session session(spec.config, snapshot);
  session.run(spec.duration);

  ReplicationResult out;
  out.label = spec.label;
  out.seed = spec.config.seed;
  out.stable_continuity = session.continuity().stable_mean(spec.stable_from);
  out.stabilization_time =
      session.continuity().stabilization_time(0.9 * out.stable_continuity);
  out.continuity_index =
      session.collector().has("continuity_index")
          ? session.collector().mean_from("continuity_index", spec.stable_from)
          : 0.0;
  out.control_overhead = session.traffic().control_overhead();
  out.prefetch_overhead = session.traffic().prefetch_overhead();
  out.alive_at_end = session.alive_count();
  out.stats = session.stats();
  out.continuity = session.continuity();
  out.collector = session.collector();
  out.obs = session.obs_report();  // null unless config.obs enabled a pillar
  return out;
}

std::vector<ReplicationResult> ExperimentRunner::run_all(
    const std::vector<ReplicationSpec>& specs) const {
  std::vector<ReplicationResult> results(specs.size());
  if (specs.empty()) return results;

  // Intra-session width override (0 = each spec keeps its own). The
  // threads value never changes results, only which cores execute a
  // session's round batches.
  const unsigned session_threads = session_threads_;
  const auto run_spec = [session_threads](const ReplicationSpec& spec) {
    if (session_threads == 0) return run_one(spec);
    ReplicationSpec overridden = spec;  // snapshot ptr copy is cheap
    overridden.config.threads = session_threads;
    return run_one(overridden);
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, specs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) results[i] = run_spec(specs[i]);
    return results;
  }

  // Claimed queue: each worker takes the next unclaimed index until
  // none is left, so a worker freed by a short session takes the next
  // spec while a long one is still running. Each slot is written by the
  // worker that claimed its index, so no synchronization is needed
  // beyond the claim counter and the joins. After a failure no worker
  // claims again; every index below the failing one was claimed first
  // and still runs, so the lowest failing index is the one a serial
  // run stops at, at any width.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(specs.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&specs, &results, &errors, &run_spec, &next, &failed] {
      while (!failed.load()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= specs.size()) return;
        try {
          results[i] = run_spec(specs[i]);
        } catch (...) {
          errors[i] = std::current_exception();
          failed.store(true);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

ExperimentResult ExperimentRunner::run_experiment(
    const std::vector<ReplicationSpec>& specs) const {
  return aggregate(run_all(specs));
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t result_fingerprint(const ReplicationResult& run) {
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, &run.stats, sizeof(run.stats));
  fnv_mix(hash, &run.stable_continuity, sizeof(run.stable_continuity));
  fnv_mix(hash, &run.continuity_index, sizeof(run.continuity_index));
  fnv_mix(hash, &run.control_overhead, sizeof(run.control_overhead));
  fnv_mix(hash, &run.prefetch_overhead, sizeof(run.prefetch_overhead));
  fnv_mix(hash, &run.alive_at_end, sizeof(run.alive_at_end));
  for (const auto& round : run.continuity.rounds()) {
    fnv_mix(hash, &round.time, sizeof(round.time));
    fnv_mix(hash, &round.continuous_nodes, sizeof(round.continuous_nodes));
    fnv_mix(hash, &round.counted_nodes, sizeof(round.counted_nodes));
  }
  for (const auto& name : run.collector.names()) {
    fnv_mix(hash, name.data(), name.size());
    for (const auto& sample : run.collector.series(name)) {
      fnv_mix(hash, &sample.time, sizeof(sample.time));
      fnv_mix(hash, &sample.value, sizeof(sample.value));
    }
  }
  return hash;
}

ExperimentResult ExperimentRunner::aggregate(std::vector<ReplicationResult> runs) {
  ExperimentResult out;
  out.replications = runs.size();
  for (const auto& run : runs) {
    out.continuity.add(run.stable_continuity);
    out.continuity_index.add(run.continuity_index);
    if (run.stabilization_time >= 0.0) out.stabilization_time.add(run.stabilization_time);
    out.control_overhead.add(run.control_overhead);
    out.prefetch_overhead.add(run.prefetch_overhead);
    out.total += run.stats;
  }
  out.runs = std::move(runs);
  return out;
}

}  // namespace continu::runner
