#pragma once
// Shared plumbing for the figure/table reproduction harnesses: standard
// workload construction, runner-backed execution, result records, and
// the divergence studies' replication-mean metric sampling.
//
// Every bench builds a batch of ReplicationSpecs and hands them to the
// ExperimentRunner, which shards the independent sessions across a
// thread pool (CONTINU_BENCH_JOBS env var overrides the job count; 0 or
// unset = all hardware threads). Results come back in spec order and
// are identical for any job count, so tables stay reproducible.
//
// Every bench prints the paper-style table to stdout and drops a CSV
// next to the working directory for replotting.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/session.hpp"
#include "net/message.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace continu::bench {

/// The paper's standard workload (Section 5.2) on a synthetic
/// clip2-style snapshot of `nodes` hosts.
[[nodiscard]] inline trace::GeneratorConfig standard_trace_config(std::size_t nodes,
                                                                  std::uint64_t seed) {
  trace::GeneratorConfig config;
  config.node_count = nodes;
  config.average_degree = 2.5;
  config.seed = seed;
  return config;
}

[[nodiscard]] inline trace::TraceSnapshot standard_trace(std::size_t nodes,
                                                         std::uint64_t seed) {
  return trace::generate_snapshot(standard_trace_config(nodes, seed));
}

/// Default run horizons: the paper tracks 0-30 s and reports stable-phase
/// values; we run a little longer and average the stable window.
struct Horizon {
  double duration = 45.0;
  double stable_from = 20.0;
};

/// Paper-standard system configuration for a run over `nodes` hosts.
[[nodiscard]] inline core::SystemConfig standard_config(std::size_t nodes,
                                                        std::uint64_t seed,
                                                        bool churn) {
  core::SystemConfig config;
  config.seed = seed;
  config.expected_nodes = static_cast<double>(nodes);
  config.churn_enabled = churn;
  return config;
}

/// Spec over a generated standard trace (workers build the snapshot).
[[nodiscard]] inline runner::ReplicationSpec standard_spec(
    const core::SystemConfig& config, std::size_t nodes, std::uint64_t trace_seed,
    std::string label = "", Horizon horizon = {}) {
  runner::ReplicationSpec spec;
  spec.label = std::move(label);
  spec.config = config;
  spec.trace = standard_trace_config(nodes, trace_seed);
  spec.duration = horizon.duration;
  spec.stable_from = horizon.stable_from;
  return spec;
}

/// Spec over a pre-built snapshot (corpus sweeps, loaded trace files).
[[nodiscard]] inline runner::ReplicationSpec snapshot_spec(
    const core::SystemConfig& config,
    std::shared_ptr<const trace::TraceSnapshot> snapshot, std::string label = "",
    Horizon horizon = {}) {
  runner::ReplicationSpec spec;
  spec.label = std::move(label);
  spec.config = config;
  spec.snapshot = std::move(snapshot);
  spec.duration = horizon.duration;
  spec.stable_from = horizon.stable_from;
  return spec;
}

/// Bench job count: CONTINU_BENCH_JOBS env var, else 0 (= all cores).
[[nodiscard]] inline unsigned bench_jobs() {
  if (const char* env = std::getenv("CONTINU_BENCH_JOBS")) {
    return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  return 0;
}

/// Runs a batch of specs through the shared thread pool, spec order out.
[[nodiscard]] inline std::vector<runner::ReplicationResult> run_batch(
    const std::vector<runner::ReplicationSpec>& specs) {
  const runner::ExperimentRunner pool(bench_jobs());
  return pool.run_all(specs);
}

/// Named-scenario lookup that exits with a diagnostic instead of UB
/// when the matrix no longer has the name.
[[nodiscard]] inline runner::Scenario require_scenario(const std::string& name) {
  auto scenario = runner::find_scenario(name);
  if (!scenario.has_value()) {
    util::Log(util::LogLevel::kError) << "scenario matrix is missing '" << name << "'";
    std::exit(1);
  }
  return *std::move(scenario);
}

/// Splits a comma-separated CLI list, dropping empty items.
[[nodiscard]] inline std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(std::move(item));
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  return out;
}

/// Headline metrics of one replication, as the divergence studies
/// report them.
struct MetricSet {
  double continuity = 0.0;
  double continuity_index = 0.0;
  double stabilization_s = 0.0;
  double control_overhead = 0.0;
  double prefetch_overhead = 0.0;
};

[[nodiscard]] inline MetricSet metrics_of(const runner::ReplicationResult& run) {
  MetricSet m;
  m.continuity = run.stable_continuity;
  m.continuity_index = run.continuity_index;
  m.stabilization_s = run.stabilization_time;
  m.control_overhead = run.control_overhead;
  m.prefetch_overhead = run.prefetch_overhead;
  return m;
}

/// Mean metrics over `reps` replications (replication_seed streams), plus
/// the continuity spread. One run of a gossip session is a single draw
/// from a chaotic system — single-seed deltas between two modes mostly
/// measure trajectory divergence, not model bias. The divergence
/// studies therefore compare MEANS at matched replication seeds; the
/// spread is reported so a delta can be read against the run-to-run
/// noise.
struct Sampled {
  MetricSet mean;  ///< accumulated from zero, then divided by reps
  double continuity_min = 1.0;
  double continuity_max = 0.0;
};

[[nodiscard]] inline Sampled sample_config(runner::ReplicationSpec spec,
                                           std::uint64_t base_seed,
                                           std::size_t reps) {
  Sampled out;
  for (std::size_t r = 0; r < reps; ++r) {
    spec.config.seed = runner::replication_seed(base_seed, r);
    const MetricSet m = metrics_of(runner::ExperimentRunner::run_one(spec));
    out.mean.continuity += m.continuity;
    out.mean.continuity_index += m.continuity_index;
    out.mean.stabilization_s += m.stabilization_s;
    out.mean.control_overhead += m.control_overhead;
    out.mean.prefetch_overhead += m.prefetch_overhead;
    out.continuity_min = std::min(out.continuity_min, m.continuity);
    out.continuity_max = std::max(out.continuity_max, m.continuity);
  }
  const double n = static_cast<double>(reps);
  out.mean.continuity /= n;
  out.mean.continuity_index /= n;
  out.mean.stabilization_s /= n;
  out.mean.control_overhead /= n;
  out.mean.prefetch_overhead /= n;
  return out;
}

/// Prints `m` as JSON object members (no braces).
inline void print_metrics_json(const MetricSet& m) {
  std::printf("\"continuity\": %.6f, \"continuity_index\": %.6f, "
              "\"stabilization_s\": %.3f, \"control_overhead\": %.6f, "
              "\"prefetch_overhead\": %.6f",
              m.continuity, m.continuity_index, m.stabilization_s,
              m.control_overhead, m.prefetch_overhead);
}

inline void print_header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

}  // namespace continu::bench
