// bench_large_session — end-to-end wall-clock benchmark of one large
// session (default: the static_8k scenario), emitted as a JSON record
// so engine changes can be compared across PRs:
//
//   {"bench": "large_session", "scenario": "static_8k", "nodes": 8000,
//    "duration": 45.0, "wall_seconds": 31.2, "setup_seconds": 0.02,
//    "events": 12345678,
//    "events_per_sec": 395694.2, "peak_queue_depth": 23456,
//    "hardware_concurrency": 8}
//
// Sessions are single-threaded by design (determinism), so this
// measures the event-engine hot path directly: scheduling, queue
// push/pop, action dispatch and round batching.
//
//   bench_large_session [--scenario NAME] [--duration SEC] [--seed S]
//                       [--obs] [--quiet]
//
// --obs compiles nothing extra — it flips the runtime observability
// config on (profiler + trace + counters) so the overhead row of
// bench/gates.json can measure the enabled-vs-disabled throughput
// delta on the same binary.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace continu;
  using Clock = std::chrono::steady_clock;

  std::string name = "static_8k";
  double duration = 0.0;  // 0 = scenario default
  std::uint64_t seed = 42;
  bool obs = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = bench::require_duration(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = bench::require_seed(argv[++i]);
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      obs = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scenario NAME] [--duration SEC] [--seed S] "
                   "[--obs] [--quiet]\n",
                   argv[0]);
      return 1;
    }
  }
  // Human-readable summaries go through the leveled logger: visible by
  // default, silenced wholesale by --quiet (the JSON record always
  // prints — it is the bench's contract).
  util::set_log_level(quiet ? util::LogLevel::kWarn : util::LogLevel::kInfo);

  const auto scenario = bench::require_scenario(name);
  auto spec = runner::spec_for(scenario, seed);
  if (duration > 0.0) spec.duration = duration;
  if (obs) {
    spec.config.obs.profile = true;
    spec.config.obs.trace = true;
    spec.config.obs.counters = true;
  }

  // Build the snapshot outside the timed region: trace generation is
  // not the engine under test.
  const auto snapshot = trace::generate_snapshot(spec.trace);

  // wall_seconds spans construction and the run; setup_seconds is the
  // construction alone.
  const auto start = Clock::now();
  core::Session session(spec.config, snapshot);
  const double setup = std::chrono::duration<double>(Clock::now() - start).count();
  session.run(spec.duration);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  const std::uint64_t events = session.simulator().executed();
  const std::size_t peak = session.simulator().peak_pending();
  // Per-node memory footprint, sampled at end of run — for static
  // scenarios that IS the steady-state peak (stream buffers saturate
  // within one capacity window and stay full). This is the record the
  // 100k-node sizing works from: which per-node container dominates.
  // engine_bytes (event queue + pending quantized deliveries) rides
  // alongside, outside the per-node total.
  const auto memory = session.memory_footprint();
  {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: %.2fs wall, %" PRIu64 " events (%.0f events/s), peak queue %zu",
                  name.c_str(), wall, events, static_cast<double>(events) / wall,
                  peak);
    util::Log(util::LogLevel::kInfo) << line;
    std::snprintf(line, sizeof line,
                  "memory: %.0f B/node (buffers %zu KiB, neighbors %zu KiB, "
                  "dht %zu KiB, inflight %zu KiB); engine %zu KiB",
                  memory.per_node_bytes(), memory.buffer_bytes >> 10,
                  memory.neighbor_bytes >> 10, memory.dht_bytes >> 10,
                  memory.inflight_bytes >> 10, memory.engine_bytes >> 10);
    util::Log(util::LogLevel::kInfo) << line;
  }
  std::printf(
      "{\"bench\": \"large_session\", \"scenario\": \"%s\", \"nodes\": %zu, "
      "\"duration\": %.1f, \"seed\": %" PRIu64 ", \"wall_seconds\": %.3f, "
      "\"setup_seconds\": %.4f, "
      "\"events\": %" PRIu64 ", \"events_per_sec\": %.1f, "
      "\"peak_queue_depth\": %zu, \"hardware_concurrency\": %u, "
      "\"obs_enabled\": %s, "
      "\"memory\": {\"measured_at\": \"end_of_run\", \"measured_nodes\": %zu, "
      "\"per_node_bytes\": %.1f, \"buffer_bytes\": %zu, "
      "\"neighbor_bytes\": %zu, \"dht_bytes\": %zu, \"inflight_bytes\": %zu, "
      "\"total_bytes\": %zu, \"engine_bytes\": %zu, \"detail\": {\"neighbor_set_bytes\": %zu, "
      "\"overheard_bytes\": %zu, \"peer_table_bytes\": %zu, "
      "\"backup_bytes\": %zu, \"transfer_map_bytes\": %zu, "
      "\"prefetch_map_bytes\": %zu, \"tag_set_bytes\": %zu, "
      "\"rate_table_bytes\": %zu, \"retry_map_bytes\": %zu, "
      "\"blacklist_bytes\": %zu}}}\n",
      name.c_str(), scenario.node_count, spec.duration, seed, wall, setup, events,
      static_cast<double>(events) / wall, peak,
      std::thread::hardware_concurrency(), obs ? "true" : "false", memory.nodes,
      memory.per_node_bytes(), memory.buffer_bytes, memory.neighbor_bytes,
      memory.dht_bytes, memory.inflight_bytes, memory.total_bytes(),
      memory.engine_bytes, memory.neighbor_set_bytes, memory.overheard_bytes,
      memory.peer_table_bytes, memory.backup_bytes, memory.transfer_map_bytes,
      memory.prefetch_map_bytes, memory.tag_set_bytes,
      memory.rate_table_bytes, memory.retry_map_bytes, memory.blacklist_bytes);
  return 0;
}
