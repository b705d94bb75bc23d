// bench_session_scaling — intra-session parallel speedup of ONE
// session at threads = 1, 2, 4, 8, emitted as JSON so the scaling curve
// is trackable from CI history:
//
//   {"bench": "session_scaling", "scenario": "static_1k", "nodes": 1000,
//    "duration": 45.0, "hardware_concurrency": 8,
//    "points": [{"threads": 1, "seconds": 9.31, "speedup": 1.0}, ...]}
//
// Every point runs the SAME (seed, config, trace); the bench fails hard
// if any thread count produces a different result fingerprint — wall
// clock is the only thing threads may change. On a 1-core host the
// curve is expected ~1.0x (hardware_concurrency records that); the
// ROADMAP "≥2x at 4 threads" target is judged on 4+ core hardware.
//
// --queue-skew K (K >= 1, quantized scenario) runs every point on the
// windowed engine at that skew. The cross-thread fingerprint check then
// enforces windowed determinism: a fixed skew must produce identical
// results at every width, even though it differs from the exact engine.
//
//   bench_session_scaling [--scenario NAME] [--duration SEC] [--seed S]
//                         [--queue-skew K]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace continu;
  using Clock = std::chrono::steady_clock;

  std::string name = "static_1k";
  double duration = 0.0;  // 0 = scenario default
  std::uint64_t seed = 42;
  unsigned queue_skew = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = bench::require_duration(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = bench::require_seed(argv[++i]);
    } else if (std::strcmp(argv[i], "--queue-skew") == 0 && i + 1 < argc) {
      const auto parsed = runner::cli::parse_uint(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "--queue-skew expects an integer >= 0, got '%s'\n",
                     argv[i]);
        return 1;
      }
      queue_skew = static_cast<unsigned>(*parsed);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scenario NAME] [--duration SEC] [--seed S] "
                   "[--queue-skew K]\n",
                   argv[0]);
      return 1;
    }
  }

  const auto scenario = bench::require_scenario(name);
  auto spec = runner::spec_for(scenario, seed);
  if (duration > 0.0) spec.duration = duration;
  if (const auto problem = runner::cli::select_engine(spec.config, queue_skew)) {
    std::fprintf(stderr, "%s\n", problem->c_str());
    return 1;
  }
  // Build the snapshot once, outside every timed region.
  spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
      trace::generate_snapshot(spec.trace));

  struct Point {
    unsigned threads = 0;
    double seconds = 0.0;
  };
  std::vector<Point> points;
  std::uint64_t reference = 0;

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    spec.config.threads = threads;
    const auto start = Clock::now();
    const auto run = runner::ExperimentRunner::run_one(spec);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    const std::uint64_t fingerprint = runner::result_fingerprint(run);
    if (points.empty()) {
      reference = fingerprint;
    } else if (fingerprint != reference) {
      std::fprintf(stderr,
                   "FAIL: results at threads=%u differ from threads=1 — the "
                   "parallel executor is not deterministic\n",
                   threads);
      return 1;
    }
    points.push_back(Point{threads, seconds});
    std::fprintf(stderr, "  threads=%u: %.2fs (fingerprint %016" PRIx64 ")\n",
                 threads, seconds, fingerprint);
  }

  std::printf("{\"bench\": \"session_scaling\", \"scenario\": \"%s\", "
              "\"nodes\": %zu, \"duration\": %.1f, \"seed\": %" PRIu64 ", "
              "\"queue_skew\": %u, "
              "\"hardware_concurrency\": %u, \"points\": [",
              name.c_str(), scenario.node_count, spec.duration, seed, queue_skew,
              std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("%s{\"threads\": %u, \"seconds\": %.3f, \"speedup\": %.3f}",
                i == 0 ? "" : ", ", points[i].threads, points[i].seconds,
                points[0].seconds / points[i].seconds);
  }
  std::printf("]}\n");
  return 0;
}
