// ExperimentRunner tests: jobs-invariant determinism, aggregation math,
// derived seeding, and a smoke pass over the shared scenario matrix.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"

namespace continu::runner {
namespace {

[[nodiscard]] ReplicationSpec small_spec(std::uint64_t seed, bool churn = false) {
  ReplicationSpec spec;
  spec.label = "test";
  spec.config.seed = seed;
  spec.config.churn_enabled = churn;
  spec.trace.node_count = 120;
  spec.trace.seed = 5;
  spec.duration = 20.0;
  spec.stable_from = 10.0;
  return spec;
}

[[nodiscard]] bool stats_equal(const core::SessionStats& a, const core::SessionStats& b) {
  return a.segments_emitted == b.segments_emitted &&
         a.segments_delivered == b.segments_delivered &&
         a.duplicate_deliveries == b.duplicate_deliveries &&
         a.requests_sent == b.requests_sent &&
         a.segments_booked == b.segments_booked &&
         a.segments_refused == b.segments_refused &&
         a.candidates_seen == b.candidates_seen &&
         a.candidates_unassigned == b.candidates_unassigned &&
         a.prefetch_launched == b.prefetch_launched &&
         a.prefetch_succeeded == b.prefetch_succeeded &&
         a.prefetch_no_replica == b.prefetch_no_replica &&
         a.prefetch_suppressed == b.prefetch_suppressed &&
         a.segments_pushed == b.segments_pushed &&
         a.dht_route_messages == b.dht_route_messages &&
         a.dht_route_failures == b.dht_route_failures && a.joins == b.joins &&
         a.graceful_leaves == b.graceful_leaves &&
         a.abrupt_leaves == b.abrupt_leaves &&
         a.neighbor_replacements == b.neighbor_replacements &&
         a.transfer_timeouts == b.transfer_timeouts;
}

TEST(ReplicationSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(replication_seed(42, 0), replication_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 64; ++i) seen.insert(replication_seed(42, i));
  EXPECT_EQ(seen.size(), 64u) << "derived seeds must not collide";
  EXPECT_NE(replication_seed(42, 0), replication_seed(43, 0));
}

TEST(Replicate, LabelsAndSeeds) {
  ReplicationSpec base = small_spec(7);
  base.label = "sweep";
  const auto specs = replicate(base, 5);
  ASSERT_EQ(specs.size(), 5u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].config.seed, replication_seed(7, i));
    EXPECT_EQ(specs[i].label, "sweep #" + std::to_string(i));
    EXPECT_EQ(specs[i].trace.seed, base.trace.seed) << "trace must not vary";
  }
}

TEST(Replicate, VaryTraceSeedDerivesFreshTopologies) {
  ReplicationSpec base = small_spec(7);
  ReplicateOptions options;
  options.vary_trace_seed = true;
  const auto specs = replicate(base, 5, options);
  ASSERT_EQ(specs.size(), 5u);
  std::set<std::uint64_t> trace_seeds;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].config.seed, replication_seed(7, i));
    EXPECT_EQ(specs[i].trace.seed, replication_seed(base.trace.seed, i));
    trace_seeds.insert(specs[i].trace.seed);
  }
  EXPECT_EQ(trace_seeds.size(), specs.size()) << "topologies must differ";

  // Default behaviour is unchanged: same call without the option is
  // bit-identical to the two-argument overload.
  const auto classic = replicate(base, 5);
  const auto classic_default = replicate(base, 5, ReplicateOptions{});
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(classic[i].config.seed, classic_default[i].config.seed);
    EXPECT_EQ(classic[i].trace.seed, classic_default[i].trace.seed);
    EXPECT_EQ(classic[i].trace.seed, base.trace.seed);
  }
}

TEST(Replicate, VaryTraceSeedRejectsPinnedSnapshot) {
  ReplicationSpec base = small_spec(7);
  base.snapshot = std::make_shared<const trace::TraceSnapshot>(
      trace::generate_snapshot(base.trace));
  ReplicateOptions options;
  options.vary_trace_seed = true;
  EXPECT_THROW((void)replicate(base, 3, options), std::invalid_argument);
}

TEST(ExperimentRunner, VaryTraceSeedProducesDistinctRunsDeterministically) {
  ReplicationSpec base = small_spec(31);
  ReplicateOptions options;
  options.vary_trace_seed = true;
  const auto specs = replicate(base, 3, options);

  const ExperimentRunner serial(1);
  const ExperimentRunner pool(8);
  const auto a = serial.run_all(specs);
  const auto b = pool.run_all(specs);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(stats_equal(a[i].stats, b[i].stats))
        << "jobs-invariance must hold with per-replication topologies";
    EXPECT_GT(a[i].stats.segments_delivered, 0u);
  }
  // Distinct topologies actually produce distinct sessions.
  EXPECT_FALSE(stats_equal(a[0].stats, a[1].stats));
  EXPECT_FALSE(stats_equal(a[1].stats, a[2].stats));
}

// The acceptance bar: same specs => bit-identical per-seed results at
// jobs=1 and jobs=8, in the same (spec) order.
TEST(ExperimentRunner, JobsInvariantDeterminism) {
  ReplicationSpec base = small_spec(11, /*churn=*/true);
  const auto specs = replicate(base, 6);

  const ExperimentRunner serial(1);
  const ExperimentRunner pool(8);
  const auto a = serial.run_all(specs);
  const auto b = pool.run_all(specs);

  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "replication " << i;
    EXPECT_EQ(a[i].stable_continuity, b[i].stable_continuity) << "replication " << i;
    EXPECT_EQ(a[i].control_overhead, b[i].control_overhead) << "replication " << i;
    EXPECT_EQ(a[i].prefetch_overhead, b[i].prefetch_overhead) << "replication " << i;
    EXPECT_TRUE(stats_equal(a[i].stats, b[i].stats)) << "replication " << i;
    ASSERT_EQ(a[i].continuity.rounds().size(), b[i].continuity.rounds().size());
    for (std::size_t r = 0; r < a[i].continuity.rounds().size(); ++r) {
      EXPECT_EQ(a[i].continuity.rounds()[r].continuous_nodes,
                b[i].continuity.rounds()[r].continuous_nodes);
    }
  }
}

TEST(ExperimentRunner, RerunIsDeterministic) {
  const auto specs = replicate(small_spec(3), 2);
  const ExperimentRunner pool(2);
  const auto a = pool.run_all(specs);
  const auto b = pool.run_all(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stable_continuity, b[i].stable_continuity);
    EXPECT_TRUE(stats_equal(a[i].stats, b[i].stats));
  }
}

TEST(ExperimentRunner, AggregationMath) {
  // Hand-built results: aggregation must reproduce textbook mean/stddev
  // and element-wise stat sums without running any session.
  std::vector<ReplicationResult> runs(3);
  runs[0].stable_continuity = 0.90;
  runs[1].stable_continuity = 0.95;
  runs[2].stable_continuity = 1.00;
  runs[0].control_overhead = 0.010;
  runs[1].control_overhead = 0.020;
  runs[2].control_overhead = 0.030;
  runs[0].stabilization_time = 10.0;
  runs[1].stabilization_time = -1.0;  // never stabilized: excluded
  runs[2].stabilization_time = 20.0;
  runs[0].stats.segments_delivered = 100;
  runs[1].stats.segments_delivered = 200;
  runs[2].stats.segments_delivered = 300;
  runs[0].stats.joins = 1;
  runs[2].stats.prefetch_launched = 7;

  const auto agg = ExperimentRunner::aggregate(runs);
  EXPECT_EQ(agg.replications, 3u);
  EXPECT_NEAR(agg.continuity.mean(), 0.95, 1e-12);
  // Population stddev of {0.90, 0.95, 1.00} = sqrt(0.05^2 * 2 / 3).
  EXPECT_NEAR(agg.continuity.stddev(), 0.040824829046386, 1e-9);
  EXPECT_NEAR(agg.continuity.min(), 0.90, 1e-12);
  EXPECT_NEAR(agg.continuity.max(), 1.00, 1e-12);
  EXPECT_NEAR(agg.control_overhead.mean(), 0.020, 1e-12);
  EXPECT_EQ(agg.stabilization_time.count(), 2u);
  EXPECT_NEAR(agg.stabilization_time.mean(), 15.0, 1e-12);
  EXPECT_EQ(agg.total.segments_delivered, 600u);
  EXPECT_EQ(agg.total.joins, 1u);
  EXPECT_EQ(agg.total.prefetch_launched, 7u);
  EXPECT_EQ(agg.runs.size(), 3u);
}

TEST(ExperimentRunner, StatsSumOperator) {
  core::SessionStats a;
  a.segments_delivered = 5;
  a.abrupt_leaves = 2;
  core::SessionStats b;
  b.segments_delivered = 7;
  b.transfer_timeouts = 3;
  const auto c = a + b;
  EXPECT_EQ(c.segments_delivered, 12u);
  EXPECT_EQ(c.abrupt_leaves, 2u);
  EXPECT_EQ(c.transfer_timeouts, 3u);
}

TEST(ExperimentRunner, EmptyBatch) {
  const ExperimentRunner pool(4);
  const auto results = pool.run_all({});
  EXPECT_TRUE(results.empty());
  const auto agg = ExperimentRunner::aggregate({});
  EXPECT_EQ(agg.replications, 0u);
  EXPECT_TRUE(agg.continuity.empty());
}

TEST(ExperimentRunner, MoreJobsThanSpecs) {
  const auto specs = replicate(small_spec(19), 2);
  const ExperimentRunner pool(16);
  const auto results = pool.run_all(specs);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_GT(r.stats.segments_delivered, 0u);
}

// --- scenario matrix ------------------------------------------------------

TEST(ScenarioMatrix, NamedLookup) {
  EXPECT_GE(scenario_matrix().size(), 3u);
  EXPECT_TRUE(find_scenario("static_1k").has_value());
  EXPECT_TRUE(find_scenario("dynamic_1k").has_value());
  EXPECT_FALSE(find_scenario("no_such_scenario").has_value());

  const auto names = scenario_names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size()) << "scenario names must be unique";
}

TEST(ScenarioMatrix, ConfigReflectsScenario) {
  const auto dynamic = *find_scenario("dynamic_1k");
  const auto config = dynamic.make_config(99);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_TRUE(config.churn_enabled);

  const auto cool = *find_scenario("cool_static_1k");
  EXPECT_EQ(cool.make_config(1).scheduler, core::SchedulerKind::kCoolStreaming);
  EXPECT_FALSE(cool.make_config(1).churn_enabled);
}

TEST(ScenarioMatrix, SelectorExpandsExactNamesAndFamilyPrefixes) {
  // Exact names resolve to exactly that scenario.
  const auto exact = expand_scenario_selector("q1_static_1k");
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].name, "q1_static_1k");

  // A family prefix expands to every member that starts with it,
  // across the matrix AND the families — "--only q1_" must sweep the
  // whole quantized family, never error out.
  const auto family = expand_scenario_selector("q1_");
  EXPECT_GT(family.size(), 1u);
  bool saw_static_1k = false;
  for (const auto& scenario : family) {
    EXPECT_EQ(scenario.name.compare(0, 3, "q1_"), 0) << scenario.name;
    if (scenario.name == "q1_static_1k") saw_static_1k = true;
  }
  EXPECT_TRUE(saw_static_1k);

  // An exact matrix name that is ALSO a prefix of other names must
  // resolve to the exact match alone (exact beats prefix).
  const auto exact_wins = expand_scenario_selector("static_1k");
  ASSERT_EQ(exact_wins.size(), 1u);
  EXPECT_EQ(exact_wins[0].name, "static_1k");

  // Matching nothing yields an empty vector — callers turn that into
  // an unknown-scenario error, never a vacuously-empty sweep.
  EXPECT_TRUE(expand_scenario_selector("zzz_no_such_prefix").empty());
  EXPECT_TRUE(expand_scenario_selector("").empty());
}

// Smoke: at least 3 named scenarios run end-to-end (downscaled horizon)
// through the runner and produce sane metrics.
TEST(ScenarioMatrix, SmokeRunsThroughRunner) {
  const std::vector<std::string> names = {"static_small", "no_prefetch",
                                          "thin_replicas"};
  std::vector<ReplicationSpec> specs;
  for (const auto& name : names) {
    auto scenario = find_scenario(name);
    ASSERT_TRUE(scenario.has_value()) << name;
    // Downscale for test speed: small overlays, short horizon.
    scenario->node_count = std::min<std::size_t>(scenario->node_count, 150);
    scenario->duration = 15.0;
    scenario->stable_from = 8.0;
    specs.push_back(spec_for(*scenario, 2024));
  }

  const ExperimentRunner pool(4);
  const auto experiment = pool.run_experiment(specs);
  ASSERT_EQ(experiment.runs.size(), names.size());
  EXPECT_EQ(experiment.replications, names.size());
  for (std::size_t i = 0; i < experiment.runs.size(); ++i) {
    const auto& run = experiment.runs[i];
    EXPECT_EQ(run.label, names[i]);
    EXPECT_GT(run.stats.segments_delivered, 0u) << names[i];
    EXPECT_GE(run.stable_continuity, 0.0) << names[i];
    EXPECT_LE(run.stable_continuity, 1.0) << names[i];
    EXPECT_FALSE(run.continuity.rounds().empty()) << names[i];
  }
  // "no_prefetch" really disables pre-fetch.
  EXPECT_EQ(experiment.runs[1].stats.prefetch_launched, 0u);
  EXPECT_GT(experiment.total.segments_delivered, 0u);
}

}  // namespace
}  // namespace continu::runner
