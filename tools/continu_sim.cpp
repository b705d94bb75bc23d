// continu_sim — command-line driver for the ContinuStreaming simulator.
//
// Runs full sessions on a synthetic clip2-style trace (or a trace file,
// or a named scenario from the shared matrix) and reports the paper's
// metrics. Designed for scripted sweeps: every knob of SystemConfig
// that the evaluation varies is a flag, --replications fans a
// Monte-Carlo sweep out across --jobs worker threads through the
// ExperimentRunner, and --csv dumps the per-round series for plotting.
//
// Examples:
//   continu_sim --nodes 1000 --duration 45
//   continu_sim --nodes 1000 --churn 0.05 --system cool --seed 3
//   continu_sim --scenario dynamic_1k --replications 20 --jobs 8
//   continu_sim --trace snapshot.trace --system gridmedia --csv run.csv

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/session.hpp"
#include "net/message.hpp"
#include "obs/obs_config.hpp"
#include "obs/report.hpp"
#include "runner/cli.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"
#include "trace/trace.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

struct CliOptions {
  std::size_t nodes = 1000;
  /// Horizons: unset means 45 s / 20 s, or the scenario's own.
  std::optional<double> duration;
  std::optional<double> stable_from;
  double churn = 0.0;
  std::uint64_t seed = 42;
  std::uint64_t trace_seed = 1;
  std::size_t neighbors = 5;
  unsigned replicas = 4;
  unsigned prefetch_limit = 5;
  bool homogeneous = false;
  std::string system = "continu";
  std::string scenario;
  std::string trace_path;
  std::string csv_path;
  std::string csv_mode = "first";  // first | per-rep | long
  bool vary_trace_seed = false;
  unsigned jobs = 0;     // 0 = hardware concurrency (flag demands >= 1)
  unsigned threads = 1;  // intra-session fork/join width
  unsigned queue_skew = 0;  // 0 = exact engine, K >= 1 = windowed(K)
  std::size_t replications = 1;
  bool list_scenarios = false;
  bool quiet = false;
  bool profile = false;
  std::string trace_out;
  std::string stats_json;
  long long trace_node = -1;  // -1 = all nodes
  /// Workload-shaping flags the user actually typed (even at their
  /// default values) — incompatible with --scenario.
  std::vector<std::string> workload_flags_seen;
};

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --nodes N          overlay size for the synthetic trace (default 1000)\n"
      "  --trace FILE       load a trace snapshot instead of generating one\n"
      "  --scenario NAME    use a named scenario from the shared matrix\n"
      "  --list-scenarios   print the scenario matrix and exit\n"
      "  --duration SEC     virtual seconds to simulate (default 45, or the\n"
      "                     scenario's own horizon)\n"
      "  --stable-from SEC  start of the stable measurement window (default 20,\n"
      "                     or the scenario's); must stay below the duration\n"
      "  --system NAME      continu | cool | gridmedia (default continu)\n"
      "  --churn F          per-round leave AND join fraction (default 0 = static)\n"
      "  --neighbors M      connected-neighbor target (default 5)\n"
      "  --replicas K       DHT backups per segment (default 4)\n"
      "  --prefetch-limit L max pre-fetches per invocation (default 5)\n"
      "  --homogeneous      give every node the mean bandwidth\n"
      "  --seed S           simulation seed (default 42)\n"
      "  --trace-seed S     trace generator seed (default 1)\n"
      "  --replications R   independent replications, seeds derived from --seed\n"
      "                     (default 1)\n"
      "  --vary-trace-seed  also derive a fresh trace seed per replication, so\n"
      "                     each one runs on its own topology\n"
      "  --jobs N           worker threads for the replication sweep, N >= 1\n"
      "                     (default: all hardware threads)\n"
      "  --threads N        intra-session fork/join threads, N >= 1 (default 1;\n"
      "                     results are identical for every value). With\n"
      "                     replications the runner clamps jobs so\n"
      "                     jobs x threads fits the machine\n"
      "  --queue-skew K     K >= 1 runs the windowed engine: the event queue\n"
      "                     drains in K-latency-grid-bucket windows, each run\n"
      "                     shard by shard (shard = seq & 7). Needs a quantized\n"
      "                     (q*_) scenario; 0 (default) is the exact engine.\n"
      "                     Deterministic and thread-invariant per K, but each\n"
      "                     K >= 1 is a different universe from exact (see\n"
      "                     docs/DETERMINISM.md contract 7)\n"
      "  --csv FILE         dump per-round series as CSV\n"
      "  --csv-mode MODE    what --csv writes for multi-replication runs:\n"
      "                       first   series of replication 0 only (default)\n"
      "                       per-rep one file per replication: <out>.rep<k>.csv\n"
      "                       long    one merged long-format file with a\n"
      "                               leading 'replication' column\n"
      "  --profile          print the phase-profiler breakdown (serial vs forked\n"
      "                     wall time, shard imbalance, Amdahl serial fraction)\n"
      "  --trace-out FILE   export protocol events + phase spans as Chrome\n"
      "                     trace-event JSON (open in about://tracing or Perfetto)\n"
      "  --trace-node N     restrict --trace-out protocol events to node index N\n"
      "  --stats-json FILE  dump settled counters + profile totals as JSON\n"
      "                     (observability runs on replication 0 only and never\n"
      "                     changes simulation results)\n"
      "  --quiet            print only the final summary line\n"
      "  --help             this text\n",
      argv0);
}

/// Stores a strictly parsed flag value that passes `in_range`. Anything
/// else — a parse failure or an out-of-range value — prints one
/// diagnostic line and returns false, so main exits 1 instead of
/// crashing deep in the library or silently running another workload.
template <typename T, typename V, typename InRange>
[[nodiscard]] bool take(const std::string& flag, const char* text,
                        const std::optional<V>& parsed, InRange in_range,
                        const char* expects, T& out) {
  if (!parsed.has_value() || !in_range(*parsed)) {
    std::fprintf(stderr, "%s expects %s, got '%s'\n", flag.c_str(), expects, text);
    return false;
  }
  out = static_cast<T>(*parsed);
  return true;
}

[[nodiscard]] std::optional<CliOptions> parse(int argc, char** argv) {
  namespace cli = continu::runner::cli;
  const auto any = [](auto) { return true; };
  const auto fits_unsigned = [](std::uint64_t v) {
    return v <= std::numeric_limits<unsigned>::max();
  };
  static const std::set<std::string> kWorkloadFlags = {
      "--nodes",    "--trace",          "--trace-seed",  "--system",
      "--churn",    "--neighbors",      "--replicas",    "--prefetch-limit",
      "--homogeneous",
  };
  CliOptions opt;
  bool csv_mode_seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (kWorkloadFlags.count(arg) != 0) opt.workload_flags_seen.push_back(arg);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return std::nullopt;
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_uint(v), [](std::uint64_t n) { return n >= 2; },
                      "an integer >= 2 (the source plus a peer)", opt.nodes)) {
        return std::nullopt;
      }
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.trace_path = v;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.scenario = v;
    } else if (arg == "--list-scenarios") {
      opt.list_scenarios = true;
    } else if (arg == "--duration") {
      const char* v = next();
      double seconds = 0.0;
      if (!v || !take(arg, v, cli::parse_double(v), [](double d) { return d > 0.0; },
                      "a number of seconds > 0", seconds)) {
        return std::nullopt;
      }
      opt.duration = seconds;
    } else if (arg == "--stable-from") {
      const char* v = next();
      double seconds = 0.0;
      if (!v || !take(arg, v, cli::parse_double(v), [](double d) { return d >= 0.0; },
                      "a number of seconds >= 0", seconds)) {
        return std::nullopt;
      }
      opt.stable_from = seconds;
    } else if (arg == "--system") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.system = v;
    } else if (arg == "--churn") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_double(v),
                      [](double f) { return f >= 0.0 && f <= 1.0; },
                      "a fraction in [0, 1]", opt.churn)) {
        return std::nullopt;
      }
    } else if (arg == "--neighbors") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_positive(v), any, "a positive integer",
                      opt.neighbors)) {
        return std::nullopt;
      }
    } else if (arg == "--replicas") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_positive_u32(v), any, "a positive integer",
                      opt.replicas)) {
        return std::nullopt;
      }
    } else if (arg == "--prefetch-limit") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_uint(v), fits_unsigned, "an integer >= 0",
                      opt.prefetch_limit)) {
        return std::nullopt;
      }
    } else if (arg == "--homogeneous") {
      opt.homogeneous = true;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_uint(v), any, "an integer >= 0", opt.seed)) {
        return std::nullopt;
      }
    } else if (arg == "--trace-seed") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_uint(v), any, "an integer >= 0",
                      opt.trace_seed)) {
        return std::nullopt;
      }
    } else if (arg == "--replications") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_positive(v), any, "a positive integer",
                      opt.replications)) {
        return std::nullopt;
      }
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_positive_u32(v), any, "a positive integer",
                      opt.jobs)) {
        return std::nullopt;
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_positive_u32(v), any, "a positive integer",
                      opt.threads)) {
        return std::nullopt;
      }
    } else if (arg == "--queue-skew") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_uint(v), fits_unsigned, "an integer >= 0",
                      opt.queue_skew)) {
        return std::nullopt;
      }
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.csv_path = v;
    } else if (arg == "--csv-mode") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.csv_mode = v;
      csv_mode_seen = true;
      if (opt.csv_mode != "first" && opt.csv_mode != "per-rep" &&
          opt.csv_mode != "long") {
        std::fprintf(stderr, "unknown --csv-mode '%s' (first|per-rep|long)\n", v);
        return std::nullopt;
      }
    } else if (arg == "--vary-trace-seed") {
      opt.vary_trace_seed = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.trace_out = v;
    } else if (arg == "--trace-node") {
      const char* v = next();
      if (!v || !take(arg, v, cli::parse_uint(v),
                      [](std::uint64_t n) {
                        return n <= std::numeric_limits<std::uint32_t>::max();
                      },
                      "a node index >= 0", opt.trace_node)) {
        return std::nullopt;
      }
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.stats_json = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      print_usage(argv[0]);
      return std::nullopt;
    }
  }
  // Flags that would be silently ignored by the flags they come with.
  if (!opt.trace_path.empty()) {
    for (const char* shape : {"--nodes", "--trace-seed"}) {
      if (std::find(opt.workload_flags_seen.begin(), opt.workload_flags_seen.end(),
                    shape) != opt.workload_flags_seen.end()) {
        std::fprintf(stderr,
                     "%s conflicts with --trace (the loaded snapshot pins the "
                     "topology)\n",
                     shape);
        return std::nullopt;
      }
    }
  }
  // No range check: churn joiners take indices past the initial count.
  if (opt.trace_node >= 0 && opt.trace_out.empty()) {
    std::fprintf(stderr, "--trace-node needs --trace-out (it filters that export)\n");
    return std::nullopt;
  }
  if (csv_mode_seen && opt.csv_path.empty()) {
    std::fprintf(stderr, "--csv-mode needs --csv (it shapes that file)\n");
    return std::nullopt;
  }
  return opt;
}

// --scenario fixes the whole workload; a CLI flag that also shapes it
// would be silently ignored, so reject the combination outright. The
// horizons (--duration, --stable-from) are not workload flags: they
// override the scenario's.
void reject_scenario_conflicts(const CliOptions& opt) {
  if (opt.workload_flags_seen.empty()) return;
  std::fprintf(stderr,
               "%s conflicts with --scenario '%s' (the scenario fixes the "
               "workload); drop one of them\n",
               opt.workload_flags_seen.front().c_str(), opt.scenario.c_str());
  std::exit(1);
}

[[nodiscard]] continu::runner::ReplicationSpec base_spec(const CliOptions& opt) {
  using namespace continu;

  if (!opt.scenario.empty()) {
    const auto scenario = runner::find_scenario(opt.scenario);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "%s\n",
                   runner::cli::unknown_scenario_message(opt.scenario).c_str());
      std::exit(1);
    }
    reject_scenario_conflicts(opt);
    runner::ReplicationSpec spec = runner::spec_for(*scenario, opt.seed);
    spec.duration = opt.duration.value_or(spec.duration);
    spec.stable_from = opt.stable_from.value_or(spec.stable_from);
    return spec;
  }

  core::SystemConfig config;
  config.seed = opt.seed;
  config.connected_neighbors = opt.neighbors;
  config.backup_replicas = opt.replicas;
  config.prefetch_limit = opt.prefetch_limit;
  config.heterogeneous_bandwidth = !opt.homogeneous;
  if (opt.churn > 0.0) {
    config.churn_enabled = true;
    config.churn.leave_fraction = opt.churn;
    config.churn.join_fraction = opt.churn;
  }
  if (opt.system == "cool") {
    config.scheduler = core::SchedulerKind::kCoolStreaming;
  } else if (opt.system == "gridmedia") {
    config.scheduler = core::SchedulerKind::kGridMediaPushPull;
  } else if (opt.system != "continu") {
    std::fprintf(stderr, "unknown system '%s' (continu|cool|gridmedia)\n",
                 opt.system.c_str());
    std::exit(1);
  }

  runner::ReplicationSpec spec;
  spec.config = config;
  if (!opt.trace_path.empty()) {
    try {
      spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
          trace::TraceSnapshot::load_file(opt.trace_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
    // A session needs the source plus at least one peer.
    if (spec.snapshot->node_count() < 2) {
      std::fprintf(stderr,
                   "error: trace %s has %zu node(s); a session needs at least 2\n",
                   opt.trace_path.c_str(), spec.snapshot->node_count());
      std::exit(1);
    }
  } else {
    spec.trace.node_count = opt.nodes;
    spec.trace.seed = opt.trace_seed;
  }
  spec.duration = opt.duration.value_or(45.0);
  spec.stable_from = opt.stable_from.value_or(20.0);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace continu;

  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) return 1;
  const CliOptions& opt = *parsed;
  if (opt.quiet) util::set_log_level(util::LogLevel::kError);

  if (opt.list_scenarios) {
    std::printf("%-20s %-6s %-6s %s\n", "name", "nodes", "churn", "description");
    for (const auto& s : runner::scenario_matrix()) {
      std::printf("%-20s %-6zu %-6s %s\n", s.name.c_str(), s.node_count,
                  s.churn ? "yes" : "no", s.description.c_str());
    }
    std::printf("\nparameterized families (grouped by name prefix):\n");
    for (const auto& group : runner::scenario_family_groups()) {
      std::printf("\n  %s_*: %s\n", group.prefix.c_str(),
                  group.description.c_str());
      for (const auto& name : group.members) {
        const auto s = runner::find_scenario(name);
        std::printf("    %-22s %-6zu %-6s %s\n", name.c_str(),
                    s ? s->node_count : 0, (s && s->churn) ? "yes" : "no",
                    s ? s->description.c_str() : "");
      }
    }
    return 0;
  }

  // When scenario-driven, the scenario fixes the workload shape and
  // --duration / --stable-from may override its horizons; the CLI's
  // --seed still picks the replication seed stream.
  runner::ReplicationSpec spec = base_spec(opt);
  // The stable measurement window must be non-empty.
  if (spec.stable_from >= spec.duration) {
    const bool scenario_window = !opt.scenario.empty() && !opt.stable_from.has_value();
    std::fprintf(stderr, "--stable-from %g must be below --duration %g%s%s%s\n",
                 spec.stable_from, spec.duration,
                 scenario_window ? " (the stable window of scenario " : "",
                 scenario_window ? opt.scenario.c_str() : "",
                 scenario_window ? "; lower it with --stable-from)" : "");
    return 1;
  }
  // Engine selection is legal with --scenario: the windowed engine
  // changes results (a deterministic, thread-invariant universe per
  // skew setting), which is why it is opt-in and gated by its own drift
  // budget in CI.
  if (const auto problem = runner::cli::select_engine(spec.config, opt.queue_skew)) {
    std::fprintf(stderr, "%s\n", problem->c_str());
    return 1;
  }
  if (opt.vary_trace_seed) {
    if (opt.replications <= 1) {
      std::fprintf(stderr, "--vary-trace-seed needs --replications > 1\n");
      return 1;
    }
    if (spec.snapshot) {
      std::fprintf(stderr,
                   "--vary-trace-seed conflicts with --trace (the loaded "
                   "snapshot pins the topology)\n");
      return 1;
    }
  } else if (opt.replications > 1 && !spec.snapshot) {
    // With a fixed trace seed the topology is shared: build the snapshot
    // once instead of regenerating it in every worker.
    spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
        trace::generate_snapshot(spec.trace));
  }
  const std::size_t nodes =
      spec.snapshot ? spec.snapshot->node_count() : spec.trace.node_count;

  // Observability is per-session opt-in and guaranteed side-effect-free
  // (obs-owned state only), so enabling it here cannot change any metric.
  spec.config.obs.profile = opt.profile;
  spec.config.obs.trace = !opt.trace_out.empty();
  spec.config.obs.counters = !opt.stats_json.empty();
  if (opt.trace_node >= 0) {
    spec.config.obs.trace_node = static_cast<std::uint32_t>(opt.trace_node);
  }

  const runner::ExperimentRunner pool(opt.jobs, opt.threads);
  runner::ReplicateOptions rep_options;
  rep_options.vary_trace_seed = opt.vary_trace_seed;
  auto specs = opt.replications == 1
                   ? std::vector<runner::ReplicationSpec>{spec}
                   : runner::replicate(spec, opt.replications, rep_options);
  // A sweep only instruments replication 0: one representative profile
  // instead of R interleaved ones, and no obs memory cost on the rest.
  for (std::size_t k = 1; k < specs.size(); ++k) specs[k].config.obs = {};
  const auto experiment = pool.run_experiment(specs);
  const auto& first = experiment.runs.front();

  const char* system_name = "continu";
  if (spec.config.scheduler == core::SchedulerKind::kCoolStreaming) {
    system_name = "cool";
  } else if (spec.config.scheduler == core::SchedulerKind::kGridMediaPushPull) {
    system_name = "gridmedia";
  }

  if (!opt.quiet) {
    std::printf("system            : %s%s\n", system_name,
                opt.scenario.empty() ? "" : (" (scenario " + opt.scenario + ")").c_str());
    std::printf("nodes             : %zu (alive at end: %zu)\n", nodes,
                first.alive_at_end);
    std::printf("duration          : %.0f s (stable window from %.0f s)\n",
                spec.duration, spec.stable_from);
    if (opt.replications > 1) {
      std::printf("replications      : %zu across %u jobs\n", opt.replications,
                  pool.jobs());
      std::printf("playback continuity: %.4f +/- %.4f (min %.4f, max %.4f)\n",
                  experiment.continuity.mean(), experiment.continuity.stddev(),
                  experiment.continuity.min(), experiment.continuity.max());
      std::printf("continuity index  : %.4f +/- %.4f\n",
                  experiment.continuity_index.mean(),
                  experiment.continuity_index.stddev());
      std::printf("control overhead  : %.5f +/- %.5f\n",
                  experiment.control_overhead.mean(),
                  experiment.control_overhead.stddev());
      std::printf("prefetch overhead : %.5f +/- %.5f\n",
                  experiment.prefetch_overhead.mean(),
                  experiment.prefetch_overhead.stddev());
    } else {
      std::printf("playback continuity: %.4f\n", first.stable_continuity);
      std::printf("continuity index  : %.4f\n", first.continuity_index);
      std::printf("control overhead  : %.5f\n", first.control_overhead);
      std::printf("prefetch overhead : %.5f (stable-phase %.5f)\n",
                  first.prefetch_overhead,
                  first.collector.has("prefetch_overhead_round")
                      ? first.collector.mean_from("prefetch_overhead_round",
                                                  spec.stable_from)
                      : 0.0);
    }
    const auto& stats = experiment.total;
    std::printf("emitted/delivered : %llu / %llu (duplicates %llu, pushed %llu)\n",
                static_cast<unsigned long long>(stats.segments_emitted),
                static_cast<unsigned long long>(stats.segments_delivered),
                static_cast<unsigned long long>(stats.duplicate_deliveries),
                static_cast<unsigned long long>(stats.segments_pushed));
    std::printf("prefetch launched : %llu (ok %llu, no-replica %llu)\n",
                static_cast<unsigned long long>(stats.prefetch_launched),
                static_cast<unsigned long long>(stats.prefetch_succeeded),
                static_cast<unsigned long long>(stats.prefetch_no_replica));
    std::printf("churn             : joins %llu, leaves %llu (graceful %llu)\n",
                static_cast<unsigned long long>(stats.joins),
                static_cast<unsigned long long>(stats.graceful_leaves +
                                                stats.abrupt_leaves),
                static_cast<unsigned long long>(stats.graceful_leaves));
  } else {
    const double churn =
        spec.config.churn_enabled ? spec.config.churn.leave_fraction : 0.0;
    std::printf("%s n=%zu churn=%.3f reps=%zu continuity=%.4f index=%.4f "
                "prefetch_oh=%.5f\n",
                opt.scenario.empty() ? system_name : opt.scenario.c_str(),
                nodes, churn, opt.replications, experiment.continuity.mean(),
                experiment.continuity_index.mean(),
                experiment.prefetch_overhead.mean());
  }

  if (!opt.csv_path.empty()) {
    if (opt.csv_mode == "per-rep" && opt.replications > 1) {
      // One file per replication: <out>.rep<k>.csv (a trailing .csv on
      // the given path becomes the stem).
      std::string stem = opt.csv_path;
      if (stem.size() > 4 && stem.compare(stem.size() - 4, 4, ".csv") == 0) {
        stem.erase(stem.size() - 4);
      }
      for (std::size_t k = 0; k < experiment.runs.size(); ++k) {
        const std::string path = stem + ".rep" + std::to_string(k) + ".csv";
        experiment.runs[k].collector.write_csv(path);
        if (!opt.quiet) std::printf("series CSV        : %s\n", path.c_str());
      }
    } else if (opt.csv_mode == "long" && opt.replications > 1) {
      // Merged long format: replication,series,time,value. CsvWriter
      // RFC-4180-quotes hostile series names (commas, newlines) instead
      // of letting them shear the column grid.
      util::CsvWriter csv(opt.csv_path, {"replication", "series", "time", "value"});
      if (!csv.ok()) {
        std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
        return 1;
      }
      for (std::size_t k = 0; k < experiment.runs.size(); ++k) {
        const auto& collector = experiment.runs[k].collector;
        for (const auto& name : collector.names()) {
          for (const auto& sample : collector.series(name)) {
            csv.add_row({std::to_string(k), name, util::Table::num(sample.time, 6),
                         util::Table::num(sample.value, 10)});
          }
        }
      }
      if (!opt.quiet) {
        std::printf("series CSV        : %s (long format, %zu replications)\n",
                    opt.csv_path.c_str(), experiment.runs.size());
      }
    } else {
      first.collector.write_csv(opt.csv_path);
      if (!opt.quiet) std::printf("series CSV        : %s\n", opt.csv_path.c_str());
    }
  }

  if (first.obs) {
    const obs::ObsReport& report = *first.obs;
    if (report.profile && !opt.quiet) obs::print_profile(report, stdout);
    if (!opt.trace_out.empty()) {
      if (!obs::write_chrome_trace(report, opt.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
        return 1;
      }
      if (!opt.quiet) {
        std::printf("trace JSON        : %s (%zu events, %zu spans)\n",
                    opt.trace_out.c_str(), report.events.size(),
                    report.spans.size());
      }
    }
    if (!opt.stats_json.empty()) {
      const std::vector<std::pair<std::string, double>> headline = {
          {"stable_continuity", first.stable_continuity},
          {"continuity_index", first.continuity_index},
          {"control_overhead", first.control_overhead},
          {"prefetch_overhead", first.prefetch_overhead},
      };
      const std::string label =
          opt.scenario.empty() ? std::string(system_name) : opt.scenario;
      if (!obs::write_stats_json(report, opt.stats_json, label, first.seed,
                                 headline)) {
        std::fprintf(stderr, "cannot write %s\n", opt.stats_json.c_str());
        return 1;
      }
      if (!opt.quiet) {
        std::printf("stats JSON        : %s\n", opt.stats_json.c_str());
      }
    }
  }
  return 0;
}
