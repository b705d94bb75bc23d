// Unit + integration tests for the deterministic observability layer:
// profiler accumulation against hand-computed values, ring wraparound,
// steady-state no-allocation witnesses, counter shard-order
// determinism across thread counts, fingerprint identity obs-on vs
// obs-off, and parse-back of both JSON exports.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace_sink.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"

namespace continu::obs {
namespace {

// ---------------------------------------------------------------------------
// Phase profiler

TEST(PhaseProfiler, HandComputedForkAccumulation) {
  PhaseProfiler prof;
  prof.set_threads(2);

  prof.on_fork(Phase::kPlan, 100, 2);
  prof.on_shard_done(0, 1000, 1600);  // 600 ns of work, the slow shard
  prof.on_shard_done(1, 1000, 1400);  // 400 ns of work
  prof.on_join(900, 1700);            // 800 ns fork wall
  prof.record_serial(Phase::kCommit, 2000, 2500);
  prof.add_run_wall(10000);

  const PhaseTotals& plan = prof.totals(Phase::kPlan);
  EXPECT_EQ(plan.forks, 1u);
  EXPECT_EQ(plan.fork_wall_ns, 800u);
  EXPECT_EQ(plan.forked_work_ns, 1000u);
  EXPECT_EQ(plan.shards_run, 2u);
  EXPECT_EQ(plan.max_shard_ns, 600u);
  EXPECT_DOUBLE_EQ(plan.mean_shard_ns, 500.0);
  EXPECT_DOUBLE_EQ(plan.imbalance(), 1.2);

  const PhaseTotals& commit = prof.totals(Phase::kCommit);
  EXPECT_EQ(commit.serial_ns, 500u);
  EXPECT_EQ(commit.serial_spans, 1u);

  const ProfileReport report = prof.report();
  EXPECT_EQ(report.threads, 2u);
  EXPECT_EQ(report.amdahl.run_wall_ns, 10000u);
  EXPECT_EQ(report.amdahl.fork_wall_ns, 800u);
  EXPECT_EQ(report.amdahl.forked_work_ns, 1000u);
  EXPECT_EQ(report.amdahl.serial_ns, 9200u);
  EXPECT_DOUBLE_EQ(report.amdahl.serial_fraction, 9200.0 / 10200.0);
  // 100 items lands in log2 bucket 6 (64 <= 100 < 128).
  EXPECT_EQ(report.batch_hist[static_cast<std::size_t>(Phase::kPlan)][6], 1u);

  // The printed histogram labels each bin with the range it counts.
  ObsReport printed;
  printed.profile = true;
  printed.prof = report;
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  print_profile(printed, file);
  std::rewind(file);
  std::string text;
  char buf[512];
  while (std::fgets(buf, sizeof buf, file) != nullptr) text += buf;
  std::fclose(file);
  EXPECT_NE(text.find("  batch sizes plan          : [0-1]=0 [2-3]=0 [4-7]=0 [8-15]=0 "
                      "[16-31]=0 [32-63]=0 [64-127]=1\n"),
            std::string::npos)
      << text;
}

TEST(PhaseProfiler, HistogramBucketEdges) {
  EXPECT_EQ(PhaseProfiler::histogram_bucket(0), 0u);
  EXPECT_EQ(PhaseProfiler::histogram_bucket(1), 0u);
  EXPECT_EQ(PhaseProfiler::histogram_bucket(2), 1u);
  EXPECT_EQ(PhaseProfiler::histogram_bucket(3), 1u);
  EXPECT_EQ(PhaseProfiler::histogram_bucket(4), 2u);
  EXPECT_EQ(PhaseProfiler::histogram_bucket(1u << 25),
            PhaseProfiler::kHistBuckets - 1);
}

TEST(PhaseProfiler, EmptyReportIsAllSerial) {
  PhaseProfiler prof;
  prof.add_run_wall(5000);
  const ProfileReport report = prof.report();
  EXPECT_EQ(report.amdahl.serial_ns, 5000u);
  EXPECT_DOUBLE_EQ(report.amdahl.serial_fraction, 1.0);
  EXPECT_DOUBLE_EQ(prof.totals(Phase::kPlan).imbalance(), 0.0);
}

TEST(PhaseProfiler, SteadyStateSlotsStopMoving) {
  PhaseProfiler prof;
  prof.on_fork(Phase::kPrepareLocal, 64, 8);  // widest fork: slots grow once
  for (std::size_t s = 0; s < 8; ++s) prof.on_shard_done(s, 10, 20);
  prof.on_join(0, 30);
  const void* data = prof.shard_slot_data();
  const std::size_t cap = prof.shard_slot_capacity();
  for (int round = 0; round < 100; ++round) {
    prof.on_fork(Phase::kPlan, 64, 8);
    for (std::size_t s = 0; s < 8; ++s) prof.on_shard_done(s, 10, 20);
    prof.on_join(0, 30);
  }
  EXPECT_EQ(prof.shard_slot_data(), data);
  EXPECT_EQ(prof.shard_slot_capacity(), cap);
}

// ---------------------------------------------------------------------------
// Trace ring / sink

TEST(TraceRing, WraparoundKeepsNewestOldestFirst) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent event;
    event.time = static_cast<double>(i);
    event.kind = TraceEventKind::kPullGrant;
    ring.push(event);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.overwritten(), 2u);
  std::vector<TraceEvent> out;
  ring.drain_to(out);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(out[i].time, 2.0 + i);
}

TEST(TraceRing, PushNeverReallocates) {
  TraceRing ring(8);
  const TraceEvent* data = ring.data();
  for (int i = 0; i < 1000; ++i) ring.push(TraceEvent{});
  EXPECT_EQ(ring.data(), data);
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(TraceEvent{});
  EXPECT_EQ(ring.size(), 1u);
}

TEST(TraceSink, DrainConcatenatesShardsThenSortsByTime) {
  TraceSink sink(16, kTraceAllNodes);
  sink.ensure_shards(2);
  TraceEvent event;
  event.kind = TraceEventKind::kSegmentDelivery;
  event.time = 2.0;
  event.a = 10;
  sink.record(0, event);
  event.time = 1.0;
  event.a = 11;
  sink.record(1, event);
  event.time = 1.0;
  event.a = 12;  // same instant as a=11 but in shard 0: must sort FIRST
  sink.record(0, event);

  const auto events = sink.drained_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].a, 12u);  // t=1.0, shard 0 wins the tie
  EXPECT_EQ(events[1].a, 11u);  // t=1.0, shard 1
  EXPECT_EQ(events[2].a, 10u);  // t=2.0
}

TEST(TraceSink, NodeFilterMatchesEitherEndpoint) {
  TraceSink sink(16, /*node_filter=*/5);
  TraceEvent event;
  event.kind = TraceEventKind::kPullRequest;
  event.node = 5;
  event.peer = 9;
  sink.record_serial(event);
  event.node = 3;
  event.peer = 5;
  sink.record_serial(event);
  event.node = 3;
  event.peer = 4;
  sink.record_serial(event);  // neither endpoint is node 5: dropped
  EXPECT_EQ(sink.drained_events().size(), 2u);
}

// ---------------------------------------------------------------------------
// Counter registry

TEST(CounterRegistry, SettleFoldsLanesInShardOrderAndZeroesThem) {
  CounterRegistry reg;
  const auto a = reg.declare("a");
  const auto b = reg.declare("b");
  reg.ensure_shards(4);
  reg.add(0, a, 1);
  reg.add(3, a, 10);
  reg.add(1, b, 5);
  reg.add(2, b, 7);
  reg.settle();
  EXPECT_EQ(reg.value(a), 11u);
  EXPECT_EQ(reg.value(b), 12u);
  reg.settle();  // lanes were zeroed: totals must not move
  EXPECT_EQ(reg.value(a), 11u);
  EXPECT_EQ(reg.value(b), 12u);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(CounterRegistry, LaneStorageStableAcrossGrowthAndSettle) {
  CounterRegistry reg;
  const auto id = reg.declare("x");
  reg.ensure_shards(2);
  const void* lane0 = reg.lane_address(0);
  reg.ensure_shards(8);  // growth must not move existing lanes
  EXPECT_EQ(reg.lane_address(0), lane0);
  for (int i = 0; i < 100; ++i) {
    reg.add(0, id, 1);
    reg.settle();
  }
  EXPECT_EQ(reg.lane_address(0), lane0);
  EXPECT_EQ(reg.value(id), 100u);
}

// ---------------------------------------------------------------------------
// Session-level determinism and export parse-back

runner::ReplicationSpec small_quantized_spec(bool obs_on, unsigned threads) {
  runner::ReplicationSpec spec;
  spec.label = "obs_test";
  spec.config.seed = 7;
  spec.config.threads = threads;
  spec.config.latency_grid_ms = 1.0;  // quantized mode: delivery forks run
  spec.trace.node_count = 200;
  spec.trace.average_degree = 2.5;
  spec.trace.seed = 3;
  spec.duration = 10.0;
  spec.stable_from = 5.0;
  if (obs_on) {
    spec.config.obs.profile = true;
    spec.config.obs.trace = true;
    spec.config.obs.counters = true;
  }
  return spec;
}

bool events_equal(const std::vector<TraceEvent>& x, const std::vector<TraceEvent>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].time != y[i].time || x[i].a != y[i].a || x[i].b != y[i].b ||
        x[i].node != y[i].node || x[i].peer != y[i].peer ||
        x[i].kind != y[i].kind) {
      return false;
    }
  }
  return true;
}

TEST(ObsSession, FingerprintIdenticalObsOnVsObsOffAcrossThreads) {
  const auto baseline =
      runner::ExperimentRunner::run_one(small_quantized_spec(false, 1));
  const auto base_fp = runner::result_fingerprint(baseline);
  ASSERT_FALSE(baseline.obs) << "obs-off run must not build a report";

  std::shared_ptr<const ObsReport> first_obs;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto off =
        runner::ExperimentRunner::run_one(small_quantized_spec(false, threads));
    EXPECT_EQ(runner::result_fingerprint(off), base_fp)
        << "obs-off drifted at threads=" << threads;
    const auto on =
        runner::ExperimentRunner::run_one(small_quantized_spec(true, threads));
    EXPECT_EQ(runner::result_fingerprint(on), base_fp)
        << "obs-on perturbed the engine at threads=" << threads;
    ASSERT_TRUE(on.obs);

    // Counter snapshot (settled in shard order) and the drained trace
    // must themselves be deterministic across thread counts.
    if (!first_obs) {
      first_obs = on.obs;
    } else {
      EXPECT_EQ(on.obs->counter_values, first_obs->counter_values)
          << "counters depend on thread count at threads=" << threads;
      EXPECT_TRUE(events_equal(on.obs->events, first_obs->events))
          << "trace events depend on thread count at threads=" << threads;
      EXPECT_EQ(on.obs->trace_recorded, first_obs->trace_recorded);
    }
  }
  ASSERT_TRUE(first_obs);
  EXPECT_FALSE(first_obs->events.empty());
  EXPECT_FALSE(first_obs->counter_values.empty());
}

TEST(ObsSession, WindowedCountersAreThreadInvariant) {
  // The windowed engine's window counters are part of the counter
  // snapshot, so they must not move with the thread count either.
  const auto scenario = runner::find_scenario("q1_static_small");
  ASSERT_TRUE(scenario.has_value());
  const auto counters = [&](unsigned threads) {
    auto spec = runner::spec_for(*scenario, 42);
    spec.config.threads = threads;
    spec.config.sharded_queue = true;
    spec.config.queue_skew_buckets = 1;
    spec.config.obs.counters = true;
    const auto run = runner::ExperimentRunner::run_one(spec);
    EXPECT_TRUE(run.obs);
    return run.obs ? run.obs->counter_values
                   : std::vector<std::pair<std::string, std::uint64_t>>{};
  };
  const auto one = counters(1);
  const auto value = [&one](const std::string& name) -> std::uint64_t {
    for (const auto& [key, v] : one) {
      if (key == name) return v;
    }
    ADD_FAILURE() << name << " missing from the counter snapshot";
    return 0;
  };
  EXPECT_GT(value("engine.lax_windows"), 0u);
  EXPECT_GT(value("engine.lax_stalled_shards"), 0u);
  EXPECT_EQ(counters(4), one);
}

// Minimal strict JSON syntax checker (objects/arrays/strings/numbers/
// literals) for parse-back: the exports must be machine-loadable, not
// just string-shaped.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool parse() {
    skip();
    if (!value()) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip();
      if (!string_lit()) return false;
      skip();
      if (peek() != ':') return false;
      ++pos_;
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ObsExport, ChromeTraceAndStatsJsonParseBack) {
  const auto run = runner::ExperimentRunner::run_one(small_quantized_spec(true, 2));
  ASSERT_TRUE(run.obs);

  const std::string trace_path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(write_chrome_trace(*run.obs, trace_path));
  const std::string trace_text = slurp(trace_path);
  EXPECT_TRUE(JsonChecker(trace_text).parse()) << "trace JSON does not parse";
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(trace_text.find("pull_request"), std::string::npos);

  const std::string stats_path = ::testing::TempDir() + "/obs_stats.json";
  ASSERT_TRUE(write_stats_json(*run.obs, stats_path, "obs_test", 7,
                               {{"stable_continuity", 0.5}}));
  const std::string stats_text = slurp(stats_path);
  EXPECT_TRUE(JsonChecker(stats_text).parse()) << "stats JSON does not parse";
  EXPECT_NE(stats_text.find("\"counters\""), std::string::npos);
  EXPECT_NE(stats_text.find("\"serial_fraction\""), std::string::npos);
  EXPECT_NE(stats_text.find("\"round.prepare_nodes\""), std::string::npos);
  // Lanes that would duplicate another counter are not declared: plan
  // covers the same batch shards as prepare, and every delivery is
  // already session.segments_delivered.
  EXPECT_EQ(stats_text.find("\"round.plan_nodes\""), std::string::npos);
  EXPECT_EQ(stats_text.find("\"delivery.segments\""), std::string::npos);

  std::filesystem::remove(trace_path);
  std::filesystem::remove(stats_path);
}

}  // namespace
}  // namespace continu::obs
