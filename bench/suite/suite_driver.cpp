// suite_driver — one repetition ("rep") of one benchmark workload per
// process, timed from outside the library at each layer's public entry
// point: trace::generate_snapshot, the core::Session constructor,
// Session::run and runner::ExperimentRunner::run_all. The per-layer
// breakdown also reads Session::memory_footprint and Session::obs_report.
//
//   suite_driver --workload NAME --seed N [--traced] [--smoke]
//   suite_driver --probe
//
// Prints one JSON object on stdout: the rep's wall times (setup_wall_s,
// run_wall_s), its peak_rss_mb, one entry per session (result fingerprint,
// stable continuity, mixed-batch fallbacks) and, with --traced, the
// per-layer breakdown ("layers"). run.py drives the reps, checks the
// outputs and aggregates; this program only measures.
//
// --probe runs only the host-speed probe and prints {"probe_ms": ...}.
// run.py runs it in its own process before and after every rep, so that
// neither disturbs the other's memory.
//
// --traced turns obs.profile and obs.counters on (never a fingerprint
// change) and adds a second, shorter "prefix" run of the same workload
// cut at the warm-up horizon, so warm-up and steady-state cost can be
// separated on every engine. (Slicing Session::run would do that more
// cheaply, but lax windows clip at each slice horizon and change the
// result; the prefix run leaves the measured run untouched.)
//
// --smoke shrinks every workload to 200 nodes and a 5 s horizon.
//
// Exit codes: 0 ok, 1 the run threw, 2 usage error.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "net/message.hpp"
#include "obs/report.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"

namespace {

using namespace continu;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// One benchmark workload. The README explains why each exists.
struct Workload {
  const char* name;
  std::vector<const char*> scenarios;
  unsigned replications;  ///< per scenario, seeds replication_seed(seed, i)
  double horizon;         ///< sim seconds per session
  double warmup;          ///< prefix horizon of the traced rep
  double stable_from;     ///< start of the stable-continuity window
  unsigned threads;       ///< intra-session width (capped at the host's cores)
  unsigned jobs;          ///< 0 = one session driven directly, no runner
  bool lax;               ///< sharded engine, skew 1
};

// Horizons are shorter than the paper's 45 s so that one rep takes a
// few seconds and a 30 s benchmark run holds several reps: at 8000
// nodes a 30 s horizon costs ~17 s of host time on a 4-vCPU Xeon.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"exact_8k", {"static_8k"}, 1, 14.0, 8.0, 10.0, 1, 0, false},
      {"grid_8k", {"q1_static_8k"}, 1, 14.0, 8.0, 10.0, 2, 0, false},
      {"lax_8k", {"q1_static_8k"}, 1, 14.0, 8.0, 10.0, 2, 0, true},
      {"mix_1k",
       {"static_1k", "cool_static_1k", "gridmedia_static_1k", "dynamic_1k",
        "f5_dynamic_1k", "fp_static_1k"},
       2, 32.0, 10.0, 20.0, 1, 4, false},
  };
  return table;
}

constexpr double kSmokeHorizon = 5.0;
constexpr double kSmokeWarmup = 2.0;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

unsigned capped(unsigned wanted) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(wanted, hw);
}

/// The workload's sessions at `seed`, in the order run_all returns them.
std::vector<runner::ReplicationSpec> make_specs(const Workload& w, std::uint64_t seed,
                                                bool smoke, bool traced) {
  std::vector<runner::ReplicationSpec> specs;
  for (const char* name : w.scenarios) {
    runner::Scenario scenario = *runner::find_scenario(name);
    if (smoke) {
      runner::ScenarioOverrides small;
      small.node_count = 200;
      scenario = scenario.with(small, scenario.name);
    }
    runner::ReplicationSpec base = runner::spec_for(scenario, seed);
    base.duration = smoke ? kSmokeHorizon : w.horizon;
    base.stable_from = smoke ? kSmokeWarmup : w.stable_from;
    base.config.threads = capped(w.threads);
    base.config.sharded_queue = w.lax;
    base.config.queue_skew_buckets = w.lax ? 1 : 0;
    base.config.obs.profile = traced;
    base.config.obs.counters = traced;
    if (w.replications == 1) {
      specs.push_back(std::move(base));
    } else {
      for (auto& spec : runner::replicate(base, w.replications)) {
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

/// What ExperimentRunner::run_one extracts, for a session driven here,
/// so single-session and runner workloads share one fingerprint.
runner::ReplicationResult result_of(const runner::ReplicationSpec& spec,
                                    core::Session& session) {
  runner::ReplicationResult out;
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
  out.obs = session.obs_report();
  return out;
}

struct Rep {
  double gen_s = 0.0;    ///< trace::generate_snapshot
  double build_s = 0.0;  ///< core::Session constructor (0 under the runner)
  double run_s = 0.0;    ///< Session::run, or the run_all wall
  std::vector<runner::ReplicationResult> results;
  /// Only reachable while a directly driven session is alive.
  std::array<std::uint64_t, 4> msgs{};  ///< control, request, data, prefetch
  core::MemoryFootprint memory{};
};

// Set-up is timed this many times per rep and the median counts, so one
// slow set-up does not decide the rep's value.
constexpr int kSetupReps = 3;

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

Rep run_workload(const Workload& w, const std::vector<runner::ReplicationSpec>& specs,
                 double horizon) {
  Rep rep;
  std::vector<double> gen_s;
  std::vector<double> build_s;
  if (w.jobs == 0) {
    runner::ReplicationSpec spec = specs.front();
    spec.duration = horizon;
    std::unique_ptr<const trace::TraceSnapshot> snapshot;
    std::unique_ptr<core::Session> session;
    for (int k = 0; k < kSetupReps; ++k) {
      session.reset();
      snapshot.reset();
      const auto t0 = Clock::now();
      snapshot = std::make_unique<const trace::TraceSnapshot>(
          trace::generate_snapshot(spec.trace));
      const auto t1 = Clock::now();
      session = std::make_unique<core::Session>(spec.config, *snapshot);
      const auto t2 = Clock::now();
      gen_s.push_back(seconds_between(t0, t1));
      build_s.push_back(seconds_between(t1, t2));
    }
    const auto t2 = Clock::now();
    session->run(spec.duration);
    const auto t3 = Clock::now();
    rep.gen_s = median_of(gen_s);
    rep.build_s = median_of(build_s);
    rep.run_s = seconds_between(t2, t3);
    rep.results.push_back(result_of(spec, *session));
    const net::TrafficClass classes[] = {net::TrafficClass::kControl,
                                         net::TrafficClass::kRequest,
                                         net::TrafficClass::kData,
                                         net::TrafficClass::kPrefetch};
    for (std::size_t c = 0; c < rep.msgs.size(); ++c) {
      rep.msgs[c] = session->traffic().messages(classes[c]);
    }
    rep.memory = session->memory_footprint();
    return rep;
  }

  // Runner workload: the benchmark generates each scenario's snapshot
  // and hands only the snapshot to the program; Session construction
  // happens inside run_all and is part of run_s. A scenario's
  // replications are consecutive specs sharing one snapshot.
  std::vector<runner::ReplicationSpec> run_specs = specs;
  for (int k = 0; k < kSetupReps; ++k) {
    const auto t0 = Clock::now();
    std::shared_ptr<const trace::TraceSnapshot> snapshot;
    for (std::size_t i = 0; i < run_specs.size(); ++i) {
      if (i % w.replications == 0) {
        snapshot = std::make_shared<const trace::TraceSnapshot>(
            trace::generate_snapshot(run_specs[i].trace));
      }
      run_specs[i].snapshot = snapshot;
      run_specs[i].duration = horizon;
    }
    gen_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto t1 = Clock::now();
  const runner::ExperimentRunner pool(capped(w.jobs), 1);
  rep.results = pool.run_all(run_specs);
  const auto t2 = Clock::now();
  rep.gen_s = median_of(gen_s);
  rep.run_s = seconds_between(t1, t2);
  return rep;
}

volatile std::uint64_t g_probe_sink = 0;  // keeps the probe's work observable

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Fixed host work that calls no simulator code, shaped like a
/// simulator's costs: faulting in 64 MiB of fresh pages, as allocation
/// does, then pushes and pops on a binary heap of 200k keys, each
/// followed by an update to a hash map of 256k entries (about 10 MB,
/// filled before the clock starts). Its wall time moves only with the
/// host: clock, cache and memory contention, and the cost of a page fault.
/// Over 25 minutes of fixed-seed reps on a busy 4-vCPU host, medians of 3
/// consecutive reps spread 29% (exact_8k), 22% (grid_8k) and 21% (mix_1k);
/// scaled by a probe of this make-up taken just before and after each
/// rep, 13%, 10% and 12%. The loop alone, or the page faults alone,
/// tracked worse on at least one of the three.
struct Probe {
  std::priority_queue<std::uint64_t> pending;
  std::unordered_map<std::uint64_t, std::uint64_t> state;

  Probe() {
    state.reserve(std::size_t{1} << 18);
    for (std::uint64_t key = 0; key < (std::uint64_t{1} << 18); ++key) state[key] = key;
    std::vector<std::uint64_t> keys;
    keys.reserve(std::size_t{1} << 18);
    std::uint64_t x = 99;
    for (int i = 0; i < 200000; ++i) keys.push_back(xorshift(x) & 0xffffffffu);
    pending = std::priority_queue<std::uint64_t>(std::less<std::uint64_t>(), std::move(keys));
  }

  void run() {
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    void* pages = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (pages == MAP_FAILED) throw std::runtime_error("probe: mmap failed");
    auto* bytes = static_cast<volatile char*>(pages);
    for (std::size_t at = 0; at < kBytes; at += 4096) bytes[at] = 1;
    munmap(pages, kBytes);

    std::uint64_t x = 7;
    for (int i = 0; i < 250000; ++i) {
      pending.push(xorshift(x) & 0xffffffffu);
      pending.pop();
      state[x & 0x3ffffu] += pending.top();
    }
    g_probe_sink = pending.top();
  }
};

/// The probe's time: the median of three passes, so that one pass the
/// host descheduled does not count.
double probe_ms() {
  Probe probe;
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    probe.run();
    passes.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median_of(passes);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t counter(const obs::ObsReport& report, const char* name) {
  for (const auto& [key, value] : report.counter_values) {
    if (key == name) return value;
  }
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

using Metrics = std::vector<std::pair<std::string, double>>;

/// The per-layer breakdown of a traced rep. Fork walls, explicit serial
/// spans and sim.unattributed_ms add up to sim.run_wall_ms by
/// construction; run.py checks that nothing is double-counted.
Metrics layers(const Workload& w, const Rep& rep, double warmup_s, double horizon,
               double warmup_horizon) {
  std::array<obs::PhaseTotals, obs::kPhaseCount> phase{};
  std::uint64_t run_wall_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t delivery_batches = 0;
  std::uint64_t lax_windows = 0;
  std::uint64_t lax_stalled = 0;
  double serial_ns = 0.0;
  double forked_work_ns = 0.0;
  core::SessionStats stats;
  for (const auto& result : rep.results) {
    const obs::ObsReport& report = *result.obs;
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const obs::PhaseTotals& t = report.prof.phases[p];
      phase[p].serial_ns += t.serial_ns;
      phase[p].fork_wall_ns += t.fork_wall_ns;
      phase[p].forked_work_ns += t.forked_work_ns;
      phase[p].max_shard_ns += t.max_shard_ns;
      phase[p].mean_shard_ns += t.mean_shard_ns;
    }
    run_wall_ns += report.prof.amdahl.run_wall_ns;
    serial_ns += static_cast<double>(report.prof.amdahl.serial_ns);
    forked_work_ns += static_cast<double>(report.prof.amdahl.forked_work_ns);
    events += counter(report, "engine.events_executed");
    peak_pending = std::max(peak_pending, counter(report, "engine.peak_queue_depth"));
    delivery_batches += counter(report, "net.delivery_batches");
    lax_windows += counter(report, "engine.lax_windows");
    lax_stalled += counter(report, "engine.lax_stalled_shards");
    stats += result.stats;
  }
  const auto& at = [&phase](obs::Phase p) -> const obs::PhaseTotals& {
    return phase[static_cast<std::size_t>(p)];
  };
  std::uint64_t fork_wall_ns = 0;
  std::uint64_t span_ns = 0;
  for (const obs::PhaseTotals& t : phase) {
    fork_wall_ns += t.fork_wall_ns;
    span_ns += t.serial_ns;
  }
  const double unattributed_ms =
      ms(run_wall_ns) - ms(fork_wall_ns) - ms(span_ns);
  const double jobs = static_cast<double>(w.jobs == 0 ? 1 : capped(w.jobs));
  const double nodes = static_cast<double>(rep.memory.nodes);

  Metrics m;
  const auto fork = [&m, &at](const char* name, obs::Phase p) {
    const obs::PhaseTotals& t = at(p);
    m.emplace_back(std::string(name) + ".wall_ms", ms(t.fork_wall_ns));
    m.emplace_back(std::string(name) + ".work_ms", ms(t.forked_work_ns));
    m.emplace_back(std::string(name) + ".imbalance", t.imbalance());
  };
  m.emplace_back("trace.gen_s", rep.gen_s);
  m.emplace_back("core.build_s", rep.build_s);
  fork("round.prepare_local", obs::Phase::kPrepareLocal);
  m.emplace_back("round.prepare_link.ms", ms(at(obs::Phase::kPrepareLink).serial_ns));
  fork("round.plan", obs::Phase::kPlan);
  m.emplace_back("round.commit.ms", ms(at(obs::Phase::kCommit).serial_ns));
  m.emplace_back("sched.requests", static_cast<double>(stats.requests_sent));
  m.emplace_back("sched.refused_ratio",
                 ratio(static_cast<double>(stats.segments_refused),
                       static_cast<double>(stats.segments_booked)));
  m.emplace_back("sched.duplicate_ratio",
                 ratio(static_cast<double>(stats.duplicate_deliveries),
                       static_cast<double>(stats.segments_delivered)));
  m.emplace_back("sim.run_wall_ms", ms(run_wall_ns));
  m.emplace_back("sim.events", static_cast<double>(events));
  m.emplace_back("sim.ns_per_event",
                 ratio(static_cast<double>(run_wall_ns), static_cast<double>(events)));
  m.emplace_back("sim.peak_pending", static_cast<double>(peak_pending));
  m.emplace_back("sim.serial_ms", ms(span_ns));
  m.emplace_back("sim.other_fork.wall_ms",
                 ms(at(obs::Phase::kShardDrain).fork_wall_ns +
                    at(obs::Phase::kOtherFork).fork_wall_ns));
  m.emplace_back("sim.unattributed_ms", unattributed_ms);
  m.emplace_back("sim.unattributed_frac", ratio(unattributed_ms, ms(run_wall_ns)));
  m.emplace_back("sim.serial_fraction", ratio(serial_ns, serial_ns + forked_work_ns));
  m.emplace_back("sim.warmup_s", warmup_s);
  m.emplace_back("sim.steady_ms_per_sim_s",
                 (rep.run_s - warmup_s) * 1e3 / (horizon - warmup_horizon));
  fork("sim.lax_drain", obs::Phase::kLaxDrain);
  m.emplace_back("sim.lax_windows", static_cast<double>(lax_windows));
  m.emplace_back("sim.lax_stalled_shards", static_cast<double>(lax_stalled));
  fork("net.delivery_bucket", obs::Phase::kDeliveryBucket);
  m.emplace_back("net.delivery_batches", static_cast<double>(delivery_batches));
  m.emplace_back("net.msgs.control", static_cast<double>(rep.msgs[0]));
  m.emplace_back("net.msgs.request", static_cast<double>(rep.msgs[1]));
  m.emplace_back("net.msgs.data", static_cast<double>(rep.msgs[2]));
  m.emplace_back("net.msgs.prefetch", static_cast<double>(rep.msgs[3]));
  m.emplace_back("net.drops", static_cast<double>(stats.deliveries_dropped));
  m.emplace_back("dht.route_msgs", static_cast<double>(stats.dht_route_messages));
  m.emplace_back("dht.route_failures", static_cast<double>(stats.dht_route_failures));
  m.emplace_back("dht.prefetch_launched", static_cast<double>(stats.prefetch_launched));
  m.emplace_back("dht.prefetch_hit_ratio",
                 ratio(static_cast<double>(stats.prefetch_succeeded),
                       static_cast<double>(stats.prefetch_launched)));
  m.emplace_back("overlay.churn_sweep.wall_ms",
                 ms(at(obs::Phase::kChurnSweep).fork_wall_ns));
  m.emplace_back("overlay.neighbor_replacements",
                 static_cast<double>(stats.neighbor_replacements));
  m.emplace_back("overlay.joins", static_cast<double>(stats.joins));
  m.emplace_back("overlay.leaves",
                 static_cast<double>(stats.graceful_leaves + stats.abrupt_leaves));
  m.emplace_back("fault.lost", static_cast<double>(stats.deliveries_lost));
  m.emplace_back("fault.partitioned", static_cast<double>(stats.deliveries_partitioned));
  m.emplace_back("fault.retry_backoffs", static_cast<double>(stats.retry_backoffs));
  m.emplace_back("fault.blacklisted", static_cast<double>(stats.suppliers_blacklisted));
  m.emplace_back("metrics.sample_sweep.wall_ms",
                 ms(at(obs::Phase::kSampleSweep).fork_wall_ns));
  m.emplace_back("mem.B_per_node", ratio(static_cast<double>(rep.memory.total_bytes()), nodes));
  m.emplace_back("mem.buffer_B_per_node",
                 ratio(static_cast<double>(rep.memory.buffer_bytes), nodes));
  m.emplace_back("mem.neighbor_B_per_node",
                 ratio(static_cast<double>(rep.memory.neighbor_bytes), nodes));
  m.emplace_back("mem.dht_B_per_node", ratio(static_cast<double>(rep.memory.dht_bytes), nodes));
  m.emplace_back("mem.inflight_B_per_node",
                 ratio(static_cast<double>(rep.memory.inflight_bytes), nodes));
  m.emplace_back("runner.busy_s", static_cast<double>(run_wall_ns) / 1e9);
  m.emplace_back("runner.efficiency",
                 ratio(static_cast<double>(run_wall_ns) / 1e9, jobs * rep.run_s));
  return m;
}

void print_number(double value) { std::printf("%.9g", value); }

int usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N [--traced] [--smoke]\n"
               "       %s --probe\n",
               argv0, problem, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool smoke = false;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const char* text = argv[++i];
      seed = std::strtoull(text, &end, 10);
      have_seed = *text != '\0' && *text != '-' && *end == '\0';
      if (!have_seed) return usage(argv[0], "--seed wants a non-negative integer");
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      traced = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--probe") == 0) {
      probe = true;
    } else {
      return usage(argv[0], "unknown argument");
    }
  }
  if (probe) {
    try {
      std::printf("{\"probe_ms\": ");
      print_number(probe_ms());
      std::printf("}\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "suite_driver: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  const Workload* workload = find_workload(name);
  if (workload == nullptr) return usage(argv[0], "unknown or missing --workload");
  if (!have_seed) return usage(argv[0], "missing --seed");

  try {
    const auto specs = make_specs(*workload, seed, smoke, traced);
    const double horizon = specs.front().duration;
    const double warmup_horizon = smoke ? kSmokeWarmup : workload->warmup;
    const Rep rep = run_workload(*workload, specs, horizon);

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"traced\": %s, \"smoke\": %s, \"threads\": %u, \"jobs\": %u",
                workload->name, seed, traced ? "true" : "false",
                smoke ? "true" : "false", specs.front().config.threads,
                workload->jobs == 0 ? 0u : capped(workload->jobs));
    std::printf(", \"horizon_s\": %g, \"setup_wall_s\": ", horizon);
    print_number(rep.gen_s + rep.build_s);
    std::printf(", \"run_wall_s\": ");
    print_number(rep.run_s);
    std::printf(", \"peak_rss_mb\": ");
    print_number(peak_rss_mb());
    std::printf(", \"sessions\": [");
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      const auto& r = rep.results[i];
      std::printf("%s{\"label\": \"%s\", \"seed\": %" PRIu64
                  ", \"fingerprint\": \"%016" PRIx64 "\", \"continuity\": ",
                  i == 0 ? "" : ", ", r.label.c_str(), r.seed,
                  runner::result_fingerprint(r));
      print_number(r.stable_continuity);
      std::printf(", \"mixed_batch_fallbacks\": %" PRIu64 "}",
                  r.stats.mixed_batch_fallbacks);
    }
    std::printf("]");
    if (traced) {
      const double warmup_s = run_workload(*workload, specs, warmup_horizon).run_s;
      std::printf(", \"layers\": {");
      const Metrics m = layers(*workload, rep, warmup_s, horizon, warmup_horizon);
      for (std::size_t i = 0; i < m.size(); ++i) {
        std::printf("%s\"%s\": ", i == 0 ? "" : ", ", m[i].first.c_str());
        print_number(m[i].second);
      }
      std::printf("}");
    }
    std::printf("}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "suite_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
