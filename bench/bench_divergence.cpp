// bench_divergence — how far each of the simulator's two approximations
// moves the headline metrics. Each run varies exactly one axis and
// compares every point against the axis' reference, all at the SAME
// (seed, config, trace):
//
//   --grids MS,...  the quantized network mode (delivery instants snap
//                   UP to the grid so batches can fork by receiver)
//                   against the continuous network model;
//   --skews K,...   the windowed engine (shards drain up to K x grid
//                   ahead of the earliest pending event so the
//                   per-shard pops can fork) against the exact engine.
//
//   {"bench": "divergence", "axis": "skews", "seed": 42, "reps": 8,
//    "skews": [1],
//    "scenarios": [{"scenario": "q1_static_1k", "nodes": 1000,
//      "exact": {"continuity": 0.83, "stabilization_s": 9.1, ...},
//      "points": [{"skew": 1, "continuity": 0.85,
//                  "continuity_delta": 0.02, "continuity_rel": 0.025,
//                  ...}]}]}
//
// On the grid axis the value list is "grids_ms", the reference
// "continuous" and a point's value "grid_ms". The study is the evidence
// that each approximation is faithful: the drift row of
// bench/gates.json bounds the skew-1 delta on q1_static_1k, and the
// committed studies under bench/results/ are records of this output.
//
// Protocol: one run of a gossip session is a single draw from a chaotic
// system, so every point is a mean over --reps matched
// replication_seed streams, with the continuity spread reported so a
// delta can be read against run-to-run noise.
//
// Default sweep: on the grid axis, the scenario matrix minus
// production-scale entries (the fingerprint oracle's 10k-node cutoff);
// on the skew axis, the q1_ and f5_q1_ families. The windowed engine
// needs a latency grid, so a continuous scenario on the skew axis is a
// hard error, not a vacuous exact-equals-exact row. Grids accept
// fractional ms, so the grid axis doubles as a dose-response probe
// (e.g. --grids 0.01,0.1,1 to separate snapping physics from batching).
//
//   bench_divergence (--grids MS,MS,... | --skews K,K,...)
//                    [--scenarios A,B,...] [--seed S] [--reps N]
//                    [--duration SEC]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/cli.hpp"

namespace {

using namespace continu;

/// One approximation axis. Value 0 is its reference on both axes: no
/// latency grid is the continuous network, skew 0 the exact engine.
struct Axis {
  bool grid;
  const char* flag;       ///< CLI flag; without its dashes, the record's "axis"
  const char* expects;    ///< what one value of the flag must be
  const char* list_key;   ///< record key of the value list
  const char* reference;  ///< record key and table label of the reference
  const char* point_key;  ///< record key of a point's value
  const char* unit;       ///< table suffix of a point's value
  const char* title;      ///< table caption
};

constexpr Axis kGrids{true, "--grids", "positive ms values", "grids_ms",
                      "continuous", "grid_ms", "ms",
                      "continuous vs latency-grid network mode"};
constexpr Axis kSkews{false, "--skews", "integers >= 1", "skews", "exact",
                      "skew", "", "exact vs bounded-skew windowed engine"};

[[nodiscard]] std::optional<double> parse_value(const Axis& axis,
                                                const std::string& text) {
  if (axis.grid) {
    const auto grid = runner::cli::parse_double(text.c_str());
    if (grid.has_value() && *grid > 0.0) return grid;
    return std::nullopt;
  }
  if (const auto skew = runner::cli::parse_positive_u32(text.c_str())) {
    return static_cast<double>(*skew);
  }
  return std::nullopt;
}

/// Sets `value` on `config` along `axis`. Returns a diagnosis when the
/// config cannot take it (a skew needs a latency grid).
[[nodiscard]] std::optional<std::string> apply(const Axis& axis,
                                               core::SystemConfig& config,
                                               double value) {
  if (axis.grid) {
    config.latency_grid_ms = value;
    return std::nullopt;
  }
  return runner::cli::select_engine(config, static_cast<unsigned>(value));
}

[[nodiscard]] std::vector<runner::Scenario> default_scenarios(const Axis& axis) {
  std::vector<runner::Scenario> scenarios;
  if (!axis.grid) {
    for (const char* family : {"q1_", "f5_q1_"}) {
      for (auto& s : runner::expand_scenario_selector(family)) {
        scenarios.push_back(std::move(s));
      }
    }
    return scenarios;
  }
  // The same cutoff (and the same announce-the-skip policy) as the
  // fingerprint oracle's default sweep.
  constexpr std::size_t kLargeNodeThreshold = 10000;
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
  return scenarios;
}

/// Prints a sampled point as JSON object members (no braces).
void print_sampled_json(const bench::Sampled& s) {
  bench::print_metrics_json(s.mean);
  std::printf(", \"continuity_min\": %.6f, \"continuity_max\": %.6f",
              s.continuity_min, s.continuity_max);
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s (--grids MS,MS,... | --skews K,K,...) "
                 "[--scenarios A,B,...] [--seed S] [--reps N] [--duration SEC]\n",
                 argv[0]);
    return 1;
  };
  std::vector<std::string> names;
  const Axis* axis = nullptr;
  std::vector<double> values;
  std::uint64_t seed = 42;
  std::size_t reps = 8;
  double duration = 0.0;  // 0 = scenario default
  for (int i = 1; i < argc; ++i) {
    const bool grids = std::strcmp(argv[i], kGrids.flag) == 0;
    if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      names = bench::split_csv(argv[++i]);
    } else if ((grids || std::strcmp(argv[i], kSkews.flag) == 0) && i + 1 < argc) {
      if (axis != nullptr) {
        std::fprintf(stderr, "give exactly one of --grids or --skews\n");
        return 1;
      }
      axis = grids ? &kGrids : &kSkews;
      for (const auto& text : bench::split_csv(argv[++i])) {
        const auto value = parse_value(*axis, text);
        if (!value.has_value()) {
          std::fprintf(stderr, "%s expects %s, got '%s'\n", axis->flag,
                       axis->expects, text.c_str());
          return 1;
        }
        values.push_back(*value);
      }
      if (values.empty()) {
        std::fprintf(stderr, "%s must name at least one value\n", axis->flag);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = bench::require_seed(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_positive_u32(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--reps expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      reps = *parsed;
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = bench::require_duration(argv[++i]);
    } else {
      return usage();
    }
  }
  if (axis == nullptr) return usage();

  std::vector<runner::Scenario> scenarios;
  if (names.empty()) {
    scenarios = default_scenarios(*axis);
  } else {
    for (const auto& name : names) scenarios.push_back(bench::require_scenario(name));
  }
  for (const auto& scenario : scenarios) {
    auto config = runner::spec_for(scenario, seed).config;
    for (const double value : values) {
      if (const auto problem = apply(*axis, config, value)) {
        std::fprintf(stderr, "%s: %s\n", scenario.name.c_str(), problem->c_str());
        return 1;
      }
    }
  }

  // Human-readable table on stderr, pure JSON record on stdout.
  std::fprintf(stderr,
               "divergence — %s, same trace/seed\n"
               "%-20s %10s %12s %12s %10s %10s\n",
               axis->title, "scenario", axis->flag + 2, "continuity", "delta",
               "rel", "stab_ds");
  std::printf("{\"bench\": \"divergence\", \"axis\": \"%s\", \"seed\": %" PRIu64
              ", \"reps\": %zu, \"%s\": [",
              axis->flag + 2, seed, reps, axis->list_key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("], \"scenarios\": [");

  const auto sample_at = [&](runner::ReplicationSpec spec, double value) {
    (void)apply(*axis, spec.config, value);  // validated above
    return bench::sample_config(std::move(spec), seed, reps);
  };
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const auto& scenario = scenarios[s];
    auto spec = runner::spec_for(scenario, seed);
    if (duration > 0.0) spec.duration = duration;
    spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
        trace::generate_snapshot(spec.trace));

    const bench::Sampled base = sample_at(spec, 0.0);
    std::fprintf(stderr, "%-20s %10s %12.6f %12s %10s %10s  [%0.4f, %0.4f]\n",
                 scenario.name.c_str(), axis->reference, base.mean.continuity,
                 "-", "-", "-", base.continuity_min, base.continuity_max);
    std::printf("%s{\"scenario\": \"%s\", \"nodes\": %zu, \"%s\": {",
                s == 0 ? "" : ", ", scenario.name.c_str(), scenario.node_count,
                axis->reference);
    print_sampled_json(base);
    std::printf("}, \"points\": [");

    for (std::size_t v = 0; v < values.size(); ++v) {
      const bench::Sampled point = sample_at(spec, values[v]);
      const double delta = point.mean.continuity - base.mean.continuity;
      const double rel =
          base.mean.continuity > 0.0 ? delta / base.mean.continuity : 0.0;
      const double stab_ds =
          point.mean.stabilization_s - base.mean.stabilization_s;
      char label[32];
      std::snprintf(label, sizeof label, "%g%s", values[v], axis->unit);
      std::fprintf(stderr,
                   "%-20s %10s %12.6f %+12.6f %+9.4f%% %+9.3fs  [%0.4f, %0.4f]\n",
                   scenario.name.c_str(), label, point.mean.continuity, delta,
                   rel * 100.0, stab_ds, point.continuity_min,
                   point.continuity_max);

      std::printf("%s{\"%s\": %g, ", v == 0 ? "" : ", ", axis->point_key,
                  values[v]);
      print_sampled_json(point);
      std::printf(", \"continuity_delta\": %.6f, \"continuity_rel\": %.6f, "
                  "\"stabilization_delta_s\": %.3f}",
                  delta, rel, stab_ds);
      std::fflush(stdout);
    }
    std::printf("]}");
  }
  std::printf("]}\n");
  return 0;
}
