// bench_quantized_divergence — the committed quantized-vs-continuous
// divergence study. For each scenario it runs the continuous network
// model and the quantized mode at each requested grid, all at the SAME
// (seed, config, trace), and reports how far the headline metrics move:
//
//   {"bench": "quantized_divergence", "seed": 42, "grids_ms": [1, 2, 5],
//    "scenarios": [{"scenario": "static_1k", "nodes": 1000,
//      "continuous": {"continuity": 0.97, "stabilization_s": 8.1, ...},
//      "points": [{"grid_ms": 1.0, "continuity": 0.969,
//                  "continuity_delta": -0.001, "continuity_rel": -0.0008,
//                  ...}, ...]}, ...]}
//
// The quantized mode is an intentional approximation (delivery instants
// snap UP to the grid so batches can fork by receiver); this study is
// the evidence that the approximation is faithful — CI archives the
// JSON so the deltas are inspectable per push, and the README points
// here instead of asserting faithfulness by fiat.
//
// Default sweep: the scenario matrix minus production-scale entries
// (same 10k-node cutoff as the fingerprint oracle). Grids accept
// fractional ms, so the tool doubles as a dose-response probe
// (e.g. --grids 0.01,0.1,1 to separate snapping physics from batching).
//
//   bench_quantized_divergence [--scenarios A,B,...] [--grids MS,MS,...]
//                              [--seed S] [--duration SEC]

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
  std::vector<double> grids = {1.0, 2.0, 5.0};
  std::uint64_t seed = 42;
  std::size_t reps = 3;
  double duration = 0.0;  // 0 = scenario default
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      names = bench::split_csv(argv[++i]);
    } else if (std::strcmp(argv[i], "--grids") == 0 && i + 1 < argc) {
      grids.clear();
      for (const auto& g : bench::split_csv(argv[++i])) {
        const auto grid = runner::cli::parse_double(g.c_str());
        if (!grid.has_value() || *grid <= 0.0) {
          std::fprintf(stderr, "--grids expects positive ms values, got '%s'\n",
                       g.c_str());
          return 1;
        }
        grids.push_back(*grid);
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = bench::require_seed(argv[++i]);
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = bench::require_duration(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_positive_u32(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--reps expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      reps = *parsed;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scenarios A,B,...] [--grids MS,MS,...] "
                   "[--seed S] [--reps N] [--duration SEC]\n",
                   argv[0]);
      return 1;
    }
  }
  if (grids.empty()) {
    std::fprintf(stderr, "--grids must name at least one grid\n");
    return 1;
  }

  // Default sweep: the matrix minus production-scale scenarios, the
  // same cutoff (and the same announce-the-skip policy) as the
  // fingerprint oracle's default sweep.
  constexpr std::size_t kLargeNodeThreshold = 10000;
  std::vector<runner::Scenario> scenarios;
  if (names.empty()) {
    for (const auto& scenario : runner::scenario_matrix()) {
      if (scenario.node_count > kLargeNodeThreshold) {
        util::Log(util::LogLevel::kWarn)
            << "skipping " << scenario.name << " (" << scenario.node_count
            << " nodes > " << kLargeNodeThreshold
            << "; name it via --scenarios to include it)";
        continue;
      }
      scenarios.push_back(scenario);
    }
  } else {
    for (const auto& name : names) scenarios.push_back(bench::require_scenario(name));
  }

  // Human-readable table on stderr, pure JSON record on stdout — the CI
  // artifact step redirects stdout to the archived file.
  std::fprintf(stderr,
               "quantized divergence — continuous vs latency-grid network "
               "mode, same trace/seed\n%-18s %8s %12s %12s %10s %10s\n",
               "scenario", "grid", "continuity", "delta", "rel", "stab_ds");

  std::printf("{\"bench\": \"quantized_divergence\", \"seed\": %" PRIu64
              ", \"reps\": %zu, \"grids_ms\": [",
              seed, reps);
  for (std::size_t i = 0; i < grids.size(); ++i) {
    std::printf("%s%g", i == 0 ? "" : ", ", grids[i]);
  }
  std::printf("], \"scenarios\": [");

  bool first_scenario = true;
  for (const auto& scenario : scenarios) {
    auto spec = runner::spec_for(scenario, seed);
    if (duration > 0.0) spec.duration = duration;
    spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
        trace::generate_snapshot(spec.trace));

    spec.config.latency_grid_ms = 0.0;
    const bench::Sampled base = bench::sample_config(spec, seed, reps);
    std::fprintf(stderr, "%-18s %8s %12.6f %12s %10s %10s  [%0.4f, %0.4f]\n",
                 scenario.name.c_str(), "cont", base.mean.continuity, "-", "-",
                 "-", base.continuity_min, base.continuity_max);

    std::printf("%s{\"scenario\": \"%s\", \"nodes\": %zu, \"continuous\": {",
                first_scenario ? "" : ", ", scenario.name.c_str(),
                scenario.node_count);
    first_scenario = false;
    bench::print_metrics_json(base.mean);
    std::printf(", \"continuity_min\": %.6f, \"continuity_max\": %.6f}, "
                "\"points\": [",
                base.continuity_min, base.continuity_max);

    for (std::size_t g = 0; g < grids.size(); ++g) {
      spec.config.latency_grid_ms = grids[g];
      const bench::Sampled q = bench::sample_config(spec, seed, reps);
      const double delta = q.mean.continuity - base.mean.continuity;
      const double rel =
          base.mean.continuity > 0.0 ? delta / base.mean.continuity : 0.0;
      const double stab_ds = q.mean.stabilization_s - base.mean.stabilization_s;
      std::fprintf(stderr,
                   "%-18s %7.3gms %12.6f %+12.6f %+9.4f%% %+9.3fs  [%0.4f, %0.4f]\n",
                   scenario.name.c_str(), grids[g], q.mean.continuity, delta,
                   rel * 100.0, stab_ds, q.continuity_min, q.continuity_max);

      std::printf("%s{\"grid_ms\": %g, ", g == 0 ? "" : ", ", grids[g]);
      bench::print_metrics_json(q.mean);
      std::printf(", \"continuity_min\": %.6f, \"continuity_max\": %.6f"
                  ", \"continuity_delta\": %.6f, \"continuity_rel\": %.6f, "
                  "\"stabilization_delta_s\": %.3f}",
                  q.continuity_min, q.continuity_max, delta, rel, stab_ds);
      std::fflush(stdout);
    }
    std::printf("]}");
  }
  std::printf("]}\n");
  return 0;
}
