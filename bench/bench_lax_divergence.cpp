// bench_lax_divergence — the committed windowed-vs-exact drift study
// for the bounded-skew windowed engine. For each quantized scenario it
// runs the exact engine, then the windowed engine at each requested
// skew, all at the SAME (seed, config, trace), and reports how far the
// headline metrics move:
//
//   {"bench": "lax_divergence", "seed": 42, "reps": 8, "skews": [1, 4],
//    "scenarios": [{"scenario": "q1_static_1k", "nodes": 1000,
//      "exact": {"continuity": 0.97, "stabilization_s": 8.1, ...},
//      "points": [{"skew": 1, "continuity": 0.969,
//                  "continuity_delta": -0.001, "continuity_rel": -0.0008,
//                  ...}, ...]}, ...]}
//
// The windowed engine is an intentional approximation (shards drain up
// to skew x grid ahead of the earliest pending event so the per-shard
// pops can fork); this study is the evidence the approximation is
// faithful. CI feeds the skew-1 means into bench/check_drift.py against
// the committed drift budget — the gate measures live, per
// BENCHMARKS.md, and this JSON is the archived evidence trail.
//
// Replication protocol matches bench_quantized_divergence: means over
// --reps matched replication_seed streams, with the continuity spread
// reported so deltas can be read against run-to-run noise.
//
// Default sweep: the q1_ and f5_q1_ families (the windowed engine needs
// a latency grid; a continuous scenario is a hard error, not a silent
// exact-equals-exact row). Skews are >= 1: skew 0 is the exact engine,
// the reference itself.
//
//   bench_lax_divergence [--scenarios A,B,...] [--skews K,K,...]
//                        [--seed S] [--reps N] [--duration SEC]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace continu;

  std::vector<std::string> names;
  std::vector<unsigned> skews = {1, 4};
  std::uint64_t seed = 42;
  std::size_t reps = 8;
  double duration = 0.0;  // 0 = scenario default
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      names = bench::split_csv(argv[++i]);
    } else if (std::strcmp(argv[i], "--skews") == 0 && i + 1 < argc) {
      skews.clear();
      for (const auto& k : bench::split_csv(argv[++i])) {
        const auto parsed = runner::cli::parse_positive_u32(k.c_str());
        if (!parsed.has_value()) {
          std::fprintf(stderr, "--skews expects integers >= 1, got '%s'\n",
                       k.c_str());
          return 1;
        }
        skews.push_back(*parsed);
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_uint(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--seed expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      seed = *parsed;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_positive_u32(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--reps expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      reps = *parsed;
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scenarios A,B,...] [--skews K,K,...] "
                   "[--seed S] [--reps N] [--duration SEC]\n",
                   argv[0]);
      return 1;
    }
  }
  if (skews.empty()) {
    std::fprintf(stderr, "--skews must name at least one skew\n");
    return 1;
  }

  // Default sweep: every quantized family member the windowed engine
  // can run on.
  std::vector<runner::Scenario> scenarios;
  if (names.empty()) {
    for (const char* family : {"q1_", "f5_q1_"}) {
      for (auto& s : runner::expand_scenario_selector(family)) {
        scenarios.push_back(std::move(s));
      }
    }
  } else {
    for (const auto& name : names) scenarios.push_back(bench::require_scenario(name));
  }
  for (const auto& scenario : scenarios) {
    // A continuous scenario would print a vacuous zero-drift row and
    // poison the study.
    auto config = runner::spec_for(scenario, seed).config;
    if (const auto problem = runner::cli::select_engine(config, skews.front())) {
      std::fprintf(stderr, "%s: %s\n", scenario.name.c_str(), problem->c_str());
      return 1;
    }
  }

  // Human-readable table on stderr, pure JSON record on stdout — the CI
  // artifact step redirects stdout to the archived file.
  std::fprintf(stderr,
               "lax divergence — exact vs bounded-skew windowed engine, same "
               "trace/seed\n%-20s %6s %12s %12s %10s %10s\n",
               "scenario", "skew", "continuity", "delta", "rel", "stab_ds");

  std::printf("{\"bench\": \"lax_divergence\", \"seed\": %" PRIu64
              ", \"reps\": %zu, \"skews\": [",
              seed, reps);
  for (std::size_t i = 0; i < skews.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ", ", skews[i]);
  }
  std::printf("], \"scenarios\": [");

  bool first_scenario = true;
  for (const auto& scenario : scenarios) {
    auto spec = runner::spec_for(scenario, seed);
    if (duration > 0.0) spec.duration = duration;
    spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
        trace::generate_snapshot(spec.trace));

    const bench::Sampled base = bench::sample_config(spec, seed, reps);
    std::fprintf(stderr, "%-20s %6s %12.6f %12s %10s %10s  [%0.4f, %0.4f]\n",
                 scenario.name.c_str(), "exact", base.mean.continuity, "-",
                 "-", "-", base.continuity_min, base.continuity_max);

    std::printf("%s{\"scenario\": \"%s\", \"nodes\": %zu, \"exact\": {",
                first_scenario ? "" : ", ", scenario.name.c_str(),
                scenario.node_count);
    first_scenario = false;
    bench::print_metrics_json(base.mean);
    std::printf(", \"continuity_min\": %.6f, \"continuity_max\": %.6f}, "
                "\"points\": [",
                base.continuity_min, base.continuity_max);

    for (std::size_t k = 0; k < skews.size(); ++k) {
      auto windowed = spec;
      windowed.config.sharded_queue = true;
      windowed.config.queue_skew_buckets = skews[k];
      const bench::Sampled lax = bench::sample_config(windowed, seed, reps);
      const double delta = lax.mean.continuity - base.mean.continuity;
      const double rel =
          base.mean.continuity > 0.0 ? delta / base.mean.continuity : 0.0;
      const double stab_ds =
          lax.mean.stabilization_s - base.mean.stabilization_s;
      std::fprintf(stderr,
                   "%-20s %6u %12.6f %+12.6f %+9.4f%% %+9.3fs  [%0.4f, %0.4f]\n",
                   scenario.name.c_str(), skews[k], lax.mean.continuity, delta,
                   rel * 100.0, stab_ds, lax.continuity_min,
                   lax.continuity_max);

      std::printf("%s{\"skew\": %u, ", k == 0 ? "" : ", ", skews[k]);
      bench::print_metrics_json(lax.mean);
      std::printf(", \"continuity_min\": %.6f, \"continuity_max\": %.6f"
                  ", \"continuity_delta\": %.6f, \"continuity_rel\": %.6f, "
                  "\"stabilization_delta_s\": %.3f}",
                  lax.continuity_min, lax.continuity_max, delta, rel, stab_ds);
      std::fflush(stdout);
    }
    std::printf("]}");
  }
  std::printf("]}\n");
  return 0;
}
