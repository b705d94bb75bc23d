// bench_fault_resilience — the committed resilience study behind the
// fault-injection subsystem. Two sweeps over the static_1k base, each
// a mean over `reps` replications at matched replication seeds:
//
//   1. LOSS SWEEP — iid link loss in {0, 1, 5}% with retry/backoff +
//      blacklist hardening on, crossed with the DHT-prefetch ablation
//      (gossip+CDP vs gossip-only via prefetch_limit = 0). The paper's
//      claim is that CDP keeps continuity high when the overlay is
//      degraded; this is the table that shows it (or doesn't) per push.
//
//   2. PARTITION SWEEP — a 2-region regional partition of length
//      {5, 10} s opening at t = 20 s, same ablation cross. Reported
//      per cell: pre-fault baseline continuity, the trough during the
//      partition, and RECOVERY TIME — seconds from heal until the
//      per-round continuity ratio first returns to >= 95% of the
//      pre-fault baseline and SUSTAINS it (5 consecutive rounds), so a
//      single lucky round cannot claim recovery. Replications that
//      never recover within the run are counted, not averaged in.
//
// Human-readable table on stderr, pure JSON on stdout — CI-style, the
// committed study under bench/results/pr7_fault_resilience/ is this
// tool's stdout.
//
//   bench_fault_resilience [--seed S] [--reps N] [--scenario NAME]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/cli.hpp"

namespace {

using continu::SimTime;

constexpr double kPartitionStart = 20.0;   // partitions open here
constexpr double kBaselineWindow = 5.0;    // baseline = mean over [start-5, start)
constexpr double kRecoveryFraction = 0.95; // "recovered" = 95% of baseline...
constexpr std::size_t kSustainRounds = 5;  // ...held for 5 consecutive rounds
constexpr double kPartitionDuration = 60.0; // run length for partition cells

struct LossCell {
  double continuity_mean = 0.0;
  double continuity_min = 1.0;
  double continuity_max = 0.0;
  double continuity_index = 0.0;
  double deliveries_lost = 0.0;
  double retry_backoffs = 0.0;
  double suppliers_blacklisted = 0.0;
  double stall_episodes = 0.0;
  double stall_rounds = 0.0;
};

struct PartitionCell {
  double baseline = 0.0;       ///< pre-fault continuity, mean over reps
  double trough = 0.0;         ///< min ratio while partitioned, mean over reps
  double recovery_s = 0.0;     ///< mean over reps THAT recovered
  std::size_t recovered = 0;   ///< reps whose ratio returned + sustained
  double final_continuity = 0.0;
  double deliveries_partitioned = 0.0;
};

/// Mean per-round continuity ratio over rounds with time in [from, to).
[[nodiscard]] double window_mean(const continu::metrics::ContinuityTracker& track,
                                 SimTime from, SimTime to) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& round : track.rounds()) {
    if (round.time >= from && round.time < to) {
      sum += round.ratio();
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

[[nodiscard]] double window_min(const continu::metrics::ContinuityTracker& track,
                                SimTime from, SimTime to) {
  double lo = 1.0;
  for (const auto& round : track.rounds()) {
    if (round.time >= from && round.time < to) lo = std::min(lo, round.ratio());
  }
  return lo;
}

/// Seconds from `heal` until the ratio first reaches `target` and holds
/// it for kSustainRounds consecutive rounds (a shorter tail at end of
/// run still counts if every remaining round holds). -1 when never.
[[nodiscard]] double recovery_time(const continu::metrics::ContinuityTracker& track,
                                   SimTime heal, double target) {
  const auto& rounds = track.rounds();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (rounds[i].time < heal || rounds[i].ratio() < target) continue;
    const std::size_t last = std::min(i + kSustainRounds, rounds.size());
    bool sustained = true;
    for (std::size_t j = i; j < last; ++j) {
      if (rounds[j].ratio() < target) { sustained = false; break; }
    }
    if (sustained) return rounds[i].time - heal;
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace continu;

  std::string base_name = "static_1k";
  std::uint64_t seed = 42;
  std::size_t reps = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
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
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      base_name = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--seed S] [--reps N] [--scenario NAME]\n",
                   argv[0]);
      return 1;
    }
  }

  const auto scenario = bench::require_scenario(base_name);
  auto base_spec = runner::spec_for(scenario, seed);
  // One topology across every cell and rep: the sweeps isolate the
  // fault axis, not trace variance.
  base_spec.snapshot = std::make_shared<const trace::TraceSnapshot>(
      trace::generate_snapshot(base_spec.trace));

  const double loss_rates[] = {0.0, 0.01, 0.05};
  const double partition_lengths[] = {5.0, 10.0};
  const struct { const char* key; bool cdp; } modes[] = {
      {"gossip_cdp", true}, {"gossip_only", false}};

  std::fprintf(stderr,
               "fault resilience — %s base, %zu reps, seed %" PRIu64 "\n",
               base_name.c_str(), reps, seed);

  std::printf("{\"bench\": \"fault_resilience\", \"scenario\": \"%s\", "
              "\"nodes\": %zu, \"seed\": %" PRIu64 ", \"reps\": %zu, "
              "\"recovery_fraction\": %.2f, \"sustain_rounds\": %zu, ",
              base_name.c_str(), scenario.node_count, seed, reps,
              kRecoveryFraction, kSustainRounds);

  // ---- sweep 1: iid loss x CDP ablation -------------------------------
  std::fprintf(stderr, "\n%-12s %6s %12s %12s %10s %10s %10s\n", "mode", "loss",
               "continuity", "cont_index", "retry_bo", "blkl", "stall_ep");
  std::printf("\"loss_sweep\": [");
  bool first = true;
  for (const auto& mode : modes) {
    for (const double loss : loss_rates) {
      auto spec = base_spec;
      spec.config.fault.loss_rate = loss;
      spec.config.harden = true;
      if (!mode.cdp) spec.config.prefetch_limit = 0;

      LossCell cell;
      for (std::size_t r = 0; r < reps; ++r) {
        spec.config.seed = runner::replication_seed(seed, r);
        const auto run = runner::ExperimentRunner::run_one(spec);
        cell.continuity_mean += run.stable_continuity;
        cell.continuity_min = std::min(cell.continuity_min, run.stable_continuity);
        cell.continuity_max = std::max(cell.continuity_max, run.stable_continuity);
        cell.continuity_index += run.continuity_index;
        cell.deliveries_lost += static_cast<double>(run.stats.deliveries_lost);
        cell.retry_backoffs += static_cast<double>(run.stats.retry_backoffs);
        cell.suppliers_blacklisted +=
            static_cast<double>(run.stats.suppliers_blacklisted);
        cell.stall_episodes += static_cast<double>(run.stats.stall_episodes);
        cell.stall_rounds += static_cast<double>(run.stats.stall_rounds);
      }
      const double n = static_cast<double>(reps);
      cell.continuity_mean /= n;
      cell.continuity_index /= n;
      cell.deliveries_lost /= n;
      cell.retry_backoffs /= n;
      cell.suppliers_blacklisted /= n;
      cell.stall_episodes /= n;
      cell.stall_rounds /= n;

      std::fprintf(stderr, "%-12s %5.1f%% %12.6f %12.6f %10.1f %10.1f %10.1f\n",
                   mode.key, loss * 100.0, cell.continuity_mean,
                   cell.continuity_index, cell.retry_backoffs,
                   cell.suppliers_blacklisted, cell.stall_episodes);

      std::printf("%s{\"mode\": \"%s\", \"loss_rate\": %g, "
                  "\"continuity\": %.6f, \"continuity_min\": %.6f, "
                  "\"continuity_max\": %.6f, \"continuity_index\": %.6f, "
                  "\"deliveries_lost_mean\": %.1f, \"retry_backoffs_mean\": %.1f, "
                  "\"suppliers_blacklisted_mean\": %.1f, "
                  "\"stall_episodes_mean\": %.1f, \"stall_rounds_mean\": %.1f}",
                  first ? "" : ", ", mode.key, loss, cell.continuity_mean,
                  cell.continuity_min, cell.continuity_max, cell.continuity_index,
                  cell.deliveries_lost, cell.retry_backoffs,
                  cell.suppliers_blacklisted, cell.stall_episodes,
                  cell.stall_rounds);
      first = false;
      std::fflush(stdout);
    }
  }
  std::printf("], ");

  // ---- sweep 2: regional partition x CDP ablation ---------------------
  std::fprintf(stderr, "\n%-12s %6s %10s %10s %12s %10s\n", "mode", "len",
               "baseline", "trough", "recovery_s", "recovered");
  std::printf("\"partition_sweep\": [");
  first = true;
  for (const auto& mode : modes) {
    for (const double length : partition_lengths) {
      const double heal = kPartitionStart + length;
      auto spec = base_spec;
      spec.duration = kPartitionDuration;
      spec.config.fault.partitions.push_back(
          {kPartitionStart, heal, /*regions=*/2});
      spec.config.harden = true;
      if (!mode.cdp) spec.config.prefetch_limit = 0;

      PartitionCell cell;
      double recovery_sum = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        spec.config.seed = runner::replication_seed(seed, r);
        const auto run = runner::ExperimentRunner::run_one(spec);
        const double baseline = window_mean(
            run.continuity, kPartitionStart - kBaselineWindow, kPartitionStart);
        cell.baseline += baseline;
        cell.trough += window_min(run.continuity, kPartitionStart, heal + 2.0);
        cell.final_continuity += run.stable_continuity;
        cell.deliveries_partitioned +=
            static_cast<double>(run.stats.deliveries_partitioned);
        const double rec =
            recovery_time(run.continuity, heal, kRecoveryFraction * baseline);
        if (rec >= 0.0) {
          recovery_sum += rec;
          ++cell.recovered;
        }
      }
      const double n = static_cast<double>(reps);
      cell.baseline /= n;
      cell.trough /= n;
      cell.final_continuity /= n;
      cell.deliveries_partitioned /= n;
      cell.recovery_s = cell.recovered == 0
                            ? -1.0
                            : recovery_sum / static_cast<double>(cell.recovered);

      std::fprintf(stderr, "%-12s %5.0fs %10.4f %10.4f %12.3f %7zu/%zu\n",
                   mode.key, length, cell.baseline, cell.trough, cell.recovery_s,
                   cell.recovered, reps);

      std::printf("%s{\"mode\": \"%s\", \"partition_s\": %g, \"heal_at\": %g, "
                  "\"baseline_continuity\": %.6f, \"trough_continuity\": %.6f, "
                  "\"recovery_s_mean\": %.3f, \"recovered\": %zu, "
                  "\"final_continuity\": %.6f, "
                  "\"deliveries_partitioned_mean\": %.1f}",
                  first ? "" : ", ", mode.key, length, heal, cell.baseline,
                  cell.trough, cell.recovery_s, cell.recovered,
                  cell.final_continuity, cell.deliveries_partitioned);
      first = false;
      std::fflush(stdout);
    }
  }
  std::printf("]}\n");
  return 0;
}
