// scenario_fingerprint — determinism oracle for the simulation engine.
//
// Runs every named scenario from the shared matrix at a fixed
// (seed, config, trace) and prints one line per scenario containing
// every SessionStats counter, the headline metrics at full precision,
// and an FNV-1a hash folded over the raw bits of every per-round
// series sample. Two builds produce identical output iff their
// engines execute bit-identical sessions — diff the output across an
// engine change to prove nothing drifted.
//
// --threads N runs every session through the intra-session parallel
// executor at that width. The output is REQUIRED to be byte-identical
// for every N — diffing --threads 1 against --threads 4 is the CI
// determinism gate for the fork/join engine.
//
// The default sweep covers the matrix MINUS scenarios above 10k nodes
// (static_100k alone takes ~15 minutes per thread setting); pass
// --include-large to sweep those too, or name them via --only.
//
// --obs runs every session with the full observability layer enabled
// (profiler + trace + counters) while printing the SAME output — the
// obs-on vs obs-off diff is the CI gate proving observability never
// perturbs the engine.
//
// --queue-skew K (K >= 1, quantized scenarios only) runs every session
// on the windowed engine. Each K prints a DIFFERENT but deterministic
// baseline that must be identical at every --threads value — a CI diff
// gate (tools/check_fingerprints.py).
//
// --only accepts exact scenario names AND family prefixes: "--only
// q1_" expands to every q1_* scenario (matrix + families, registry
// order). A selector matching nothing is still a hard error.
//
//   scenario_fingerprint [--seed S] [--only NAME[,NAME...]] [--threads N]
//                        [--include-large] [--obs] [--queue-skew K] [--quiet]

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/collector.hpp"
#include "runner/cli.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace continu;

  std::uint64_t seed = 42;
  unsigned threads = 1;
  bool include_large = false;
  bool obs = false;
  unsigned queue_skew = 0;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_uint(argv[++i]);
      if (!parsed.has_value()) {
        // A silently-mangled seed would shift the baseline being
        // diffed — worse than an error for a determinism oracle.
        std::fprintf(stderr, "--seed expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      seed = *parsed;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_positive_u32(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--threads expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      threads = *parsed;
    } else if (std::strcmp(argv[i], "--include-large") == 0) {
      include_large = true;
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      obs = true;
    } else if (std::strcmp(argv[i], "--queue-skew") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_uint(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--queue-skew expects an integer >= 0\n");
        return 1;
      }
      queue_skew = static_cast<unsigned>(*parsed);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      util::set_log_level(util::LogLevel::kError);
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        std::string name =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!name.empty()) only.push_back(std::move(name));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed S] [--only NAME[,NAME...]] [--threads N] "
                   "[--include-large] [--obs] [--queue-skew K] [--quiet]\n",
                   argv[0]);
      return 1;
    }
  }

  // Resolve --only selectors up front: exact names take one scenario,
  // family prefixes ("q1_") expand to every member. A selector that
  // matches NOTHING is an error, not a silent skip: a renamed scenario
  // must fail the CI fingerprint step, not vacuously pass it.
  std::vector<runner::Scenario> selected;
  for (const auto& name : only) {
    auto expanded = runner::expand_scenario_selector(name);
    if (expanded.empty()) {
      std::fprintf(stderr, "%s\n",
                   runner::cli::unknown_scenario_message(name).c_str());
      return 1;
    }
    for (auto& scenario : expanded) selected.push_back(std::move(scenario));
  }

  // Default sweep: the core matrix, MINUS production-scale scenarios
  // (minutes each — they would make the everyday oracle unusable and
  // developers would stop running it). --include-large or --only adds
  // them back; the skip is announced so it can never pass silently as
  // "full coverage". With --only, run exactly the named scenarios —
  // matrix or family members — in the order given, so a family name
  // can never produce a vacuously-empty (and trivially diff-clean)
  // output.
  constexpr std::size_t kLargeNodeThreshold = 10000;
  std::vector<runner::Scenario> scenarios;
  if (only.empty()) {
    for (const auto& scenario : runner::scenario_matrix()) {
      if (!include_large && scenario.node_count > kLargeNodeThreshold) {
        util::Log(util::LogLevel::kWarn)
            << "skipping " << scenario.name << " (" << scenario.node_count
            << " nodes > " << kLargeNodeThreshold << "; pass --include-large or "
            << "--only " << scenario.name << " to run it)";
        continue;
      }
      scenarios.push_back(scenario);
    }
  } else {
    scenarios = std::move(selected);
  }

  for (const auto& scenario : scenarios) {
    auto spec = runner::spec_for(scenario, seed);
    spec.config.threads = threads;
    if (const auto problem = runner::cli::select_engine(spec.config, queue_skew)) {
      std::fprintf(stderr, "%s: %s\n", scenario.name.c_str(), problem->c_str());
      return 1;
    }
    if (obs) {
      spec.config.obs.profile = true;
      spec.config.obs.trace = true;
      spec.config.obs.counters = true;
    }
    const auto run = runner::ExperimentRunner::run_one(spec);
    const auto& s = run.stats;
    std::printf(
        "%s seed=%" PRIu64
        " emitted=%" PRIu64 " delivered=%" PRIu64 " dup=%" PRIu64 " req=%" PRIu64
        " booked=%" PRIu64 " refused=%" PRIu64 " cand=%" PRIu64 " unassigned=%" PRIu64
        " pf_launch=%" PRIu64 " pf_ok=%" PRIu64 " pf_norep=%" PRIu64 " pf_supp=%" PRIu64
        " pushed=%" PRIu64 " dht_msg=%" PRIu64 " dht_fail=%" PRIu64
        " joins=%" PRIu64 " leave_g=%" PRIu64 " leave_a=%" PRIu64
        " repl=%" PRIu64 " timeouts=%" PRIu64 " mixedfb=%" PRIu64 " dropped=%" PRIu64
        " lost=%" PRIu64 " part=%" PRIu64 " crash=%" PRIu64
        " retrybo=%" PRIu64 " blkl=%" PRIu64 " stallep=%" PRIu64 " stallrd=%" PRIu64
        " continuity=%.17g index=%.17g ctrl=%.17g pf_oh=%.17g alive=%zu hash=%016" PRIx64
        "\n",
        scenario.name.c_str(), seed, s.segments_emitted, s.segments_delivered,
        s.duplicate_deliveries, s.requests_sent, s.segments_booked, s.segments_refused,
        s.candidates_seen, s.candidates_unassigned, s.prefetch_launched,
        s.prefetch_succeeded, s.prefetch_no_replica, s.prefetch_suppressed,
        s.segments_pushed, s.dht_route_messages, s.dht_route_failures, s.joins,
        s.graceful_leaves, s.abrupt_leaves, s.neighbor_replacements, s.transfer_timeouts,
        s.mixed_batch_fallbacks, s.deliveries_dropped,
        s.deliveries_lost, s.deliveries_partitioned, s.fault_crashes,
        s.retry_backoffs, s.suppliers_blacklisted, s.stall_episodes, s.stall_rounds,
        run.stable_continuity, run.continuity_index, run.control_overhead,
        run.prefetch_overhead, run.alive_at_end, runner::result_fingerprint(run));
    std::fflush(stdout);
  }
  return 0;
}
