// ExperimentRunner scaling micro-bench: replications/second at jobs =
// 1, 2, 4, 8 over a fixed batch of small sessions, emitted as JSON so
// future PRs can track parallel speedup across commits.
//
//   bench_runner_scaling [--nodes N] [--replications R]
//
//   {"bench": "runner_scaling", "replications": 16, "nodes": 150,
//    "points": [{"jobs": 1, "seconds": 3.21, "reps_per_sec": 4.98,
//                "speedup": 1.0}, ...]}
//
// The batch is identical at every jobs count (same specs, same seeds),
// so the run also cross-checks jobs-invariance of the results: any
// continuity mismatch across jobs counts fails the bench. The defaults
// are a fast smoke; a run whose speedup feeds a GATE (the
// runner_scaling row of bench/gates.json) should use a heavier batch
// (e.g. --nodes 500 --replications 24) so per-point wall time is
// seconds, not hundreds of milliseconds — short measurements on shared
// runners are noisy enough to flake a 1.5x floor.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runner/cli.hpp"

namespace {

[[nodiscard]] std::vector<continu::runner::ReplicationSpec> fixed_batch(
    std::size_t nodes, std::size_t replications) {
  using namespace continu;
  runner::ReplicationSpec base;
  base.label = "scaling";
  base.config = bench::standard_config(4242, /*churn=*/false);
  base.trace = bench::standard_trace_config(nodes, 77);
  base.duration = 30.0;
  base.stable_from = 15.0;
  return runner::replicate(base, replications);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace continu;
  using Clock = std::chrono::steady_clock;

  std::size_t nodes = 150;
  std::size_t replications = 16;
  for (int i = 1; i < argc; ++i) {
    const bool is_nodes = std::strcmp(argv[i], "--nodes") == 0;
    const bool is_reps = std::strcmp(argv[i], "--replications") == 0;
    if ((is_nodes || is_reps) && i + 1 < argc) {
      const auto parsed = runner::cli::parse_positive(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "%s expects a positive integer, got '%s'\n",
                     argv[i - 1], argv[i]);
        return 1;
      }
      (is_nodes ? nodes : replications) = *parsed;
    } else {
      std::fprintf(stderr, "usage: %s [--nodes N] [--replications R]\n",
                   argv[0]);
      return 1;
    }
  }

  const auto specs = fixed_batch(nodes, replications);

  struct Point {
    unsigned jobs = 0;
    double seconds = 0.0;
    double reps_per_sec = 0.0;
  };
  std::vector<Point> points;
  std::vector<double> reference;  // continuity per replication at jobs=1

  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const runner::ExperimentRunner pool(jobs);
    const auto start = Clock::now();
    const auto results = pool.run_all(specs);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    std::vector<double> continuities;
    continuities.reserve(results.size());
    for (const auto& r : results) continuities.push_back(r.stable_continuity);
    if (reference.empty()) {
      reference = continuities;
    } else if (continuities != reference) {
      std::fprintf(stderr,
                   "FAIL: results at jobs=%u differ from jobs=1 — runner is "
                   "not jobs-invariant\n",
                   jobs);
      return 1;
    }

    Point p;
    p.jobs = jobs;
    p.seconds = seconds;
    p.reps_per_sec = static_cast<double>(specs.size()) / seconds;
    points.push_back(p);
    std::fprintf(stderr, "  jobs=%u: %.2fs (%.2f reps/s)\n", jobs, seconds,
                 p.reps_per_sec);
  }

  // hardware_concurrency makes the record interpretable across hosts:
  // a ~1.0x curve on a 1-core CI box is expected, on 8 cores it is a
  // bug (the ROADMAP "verify speedup on 4+ cores" item keys off this).
  std::printf("{\"bench\": \"runner_scaling\", \"replications\": %zu, "
              "\"nodes\": %zu, \"hardware_concurrency\": %u, \"points\": [",
              replications, nodes, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::printf("%s{\"jobs\": %u, \"seconds\": %.3f, \"reps_per_sec\": %.3f, "
                "\"speedup\": %.3f}",
                i == 0 ? "" : ", ", p.jobs, p.seconds, p.reps_per_sec,
                points[0].seconds / p.seconds);
  }
  std::printf("]}\n");
  return 0;
}
