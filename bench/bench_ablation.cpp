// Ablation benches for the design choices DESIGN.md calls out:
//   (a) backup replication factor k in {1, 2, 4, 6};
//   (b) per-invocation pre-fetch cap l in {0, 2, 5, 10};
//   (c) graceful vs abrupt departures under churn;
//   (d) connected-neighbor target M in {3, 5, 8} (paper: larger M does
//       not notably help — the inbound rate is the constraint);
//   (e) pull vs push-pull vs DHT-assisted system comparison.
// Each table reports stable continuity and pre-fetch overhead.
//
// All 17 sessions share one 500-node snapshot and run as a single
// ExperimentRunner batch, so the whole ablation grid fills the machine.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

constexpr std::size_t kNodes = 500;

}  // namespace

int main() {
  using namespace continu;

  const auto snapshot = std::make_shared<const trace::TraceSnapshot>(
      bench::standard_trace(kNodes, 700));
  util::CsvWriter csv("ablations.csv", {"ablation", "setting", "continuity", "prefetch_overhead"});

  // Build the full grid of specs, then run it as one parallel batch.
  const std::vector<unsigned> replicas = {1, 2, 4, 6};
  const std::vector<unsigned> prefetch_caps = {0, 2, 5, 10};
  const std::vector<double> graceful = {0.0, 0.5, 1.0};
  const std::vector<std::size_t> neighbor_targets = {3, 5, 8};
  struct SystemRow { const char* name; core::SchedulerKind kind; };
  const std::vector<SystemRow> systems = {
      {"CoolStreaming (pull)", core::SchedulerKind::kCoolStreaming},
      {"GridMedia (push-pull)", core::SchedulerKind::kGridMediaPushPull},
      {"ContinuStreaming (pull+DHT)", core::SchedulerKind::kContinuStreaming},
  };

  std::vector<runner::ReplicationSpec> specs;
  for (const unsigned k : replicas) {
    auto config = bench::standard_config(29, false);
    config.backup_replicas = k;
    specs.push_back(bench::snapshot_spec(config, snapshot, "replicas_k"));
  }
  for (const unsigned l : prefetch_caps) {
    auto config = bench::standard_config(31, false);
    config.prefetch_limit = l;
    specs.push_back(bench::snapshot_spec(config, snapshot, "prefetch_l"));
  }
  for (const double g : graceful) {
    auto config = bench::standard_config(37, true);
    config.churn.graceful_fraction = g;
    specs.push_back(bench::snapshot_spec(config, snapshot, "graceful_fraction"));
  }
  for (const std::size_t m : neighbor_targets) {
    auto config = bench::standard_config(41, false);
    config.connected_neighbors = m;
    specs.push_back(bench::snapshot_spec(config, snapshot, "neighbors_m"));
  }
  for (const auto& row : systems) {
    auto config = bench::standard_config(43, false);
    config.scheduler = row.kind;
    specs.push_back(bench::snapshot_spec(config, snapshot, "system"));
  }

  const auto results = bench::run_batch(specs);
  std::size_t next = 0;

  // (a) replication factor k ---------------------------------------------
  bench::print_header("Ablation A", "backup replication factor k (static, 500 nodes)");
  {
    util::Table table({"k", "continuity", "prefetch overhead", "prefetch ok", "no replica"});
    for (const unsigned k : replicas) {
      const auto& run = results[next++];
      table.add_row({std::to_string(k), util::Table::num(run.stable_continuity, 3),
                     util::Table::num(run.prefetch_overhead, 4),
                     std::to_string(run.stats.prefetch_succeeded),
                     std::to_string(run.stats.prefetch_no_replica)});
      csv.add_row({"replicas_k", std::to_string(k),
                   util::Table::num(run.stable_continuity, 4),
                   util::Table::num(run.prefetch_overhead, 5)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Expectation: no-replica failures drop as k grows (model: 2^-k);\n"
                "k = 4 (the paper's choice) is near the knee.\n");
  }

  // (b) pre-fetch cap l -----------------------------------------------------
  bench::print_header("Ablation B", "per-invocation pre-fetch cap l (static, 500 nodes)");
  {
    util::Table table({"l", "continuity", "prefetch overhead", "launched"});
    for (const unsigned l : prefetch_caps) {
      const auto& run = results[next++];
      table.add_row({std::to_string(l), util::Table::num(run.stable_continuity, 3),
                     util::Table::num(run.prefetch_overhead, 4),
                     std::to_string(run.stats.prefetch_launched)});
      csv.add_row({"prefetch_l", std::to_string(l),
                   util::Table::num(run.stable_continuity, 4),
                   util::Table::num(run.prefetch_overhead, 5)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Expectation: l = 0 disables pre-fetch (gossip-only continuity);\n"
                "overhead grows with l while the continuity gain saturates.\n");
  }

  // (c) graceful vs abrupt churn -------------------------------------------
  bench::print_header("Ablation C", "graceful vs abrupt departures (dynamic, 500 nodes)");
  {
    util::Table table({"graceful fraction", "continuity", "prefetch overhead"});
    for (const double g : graceful) {
      const auto& run = results[next++];
      table.add_row({util::Table::num(g, 1), util::Table::num(run.stable_continuity, 3),
                     util::Table::num(run.prefetch_overhead, 4)});
      csv.add_row({"graceful_fraction", util::Table::num(g, 1),
                   util::Table::num(run.stable_continuity, 4),
                   util::Table::num(run.prefetch_overhead, 5)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Expectation: graceful handover preserves VoD backups, so higher\n"
                "graceful fractions keep pre-fetch more effective under churn.\n");
  }

  // (d) connected-neighbor target M ------------------------------------------
  bench::print_header("Ablation D", "connected-neighbor target M (static, 500 nodes)");
  {
    util::Table table({"M", "continuity", "control overhead"});
    for (const std::size_t m : neighbor_targets) {
      const auto& run = results[next++];
      table.add_row({std::to_string(m), util::Table::num(run.stable_continuity, 3),
                     util::Table::num(run.control_overhead, 5)});
      csv.add_row({"neighbors_m", std::to_string(m),
                   util::Table::num(run.stable_continuity, 4),
                   util::Table::num(run.control_overhead, 5)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Expectation (paper Section 5.4.1): larger M brings no notable\n"
                "continuity gain — the inbound rate is the constraint — while the\n"
                "control overhead grows ~ M/495.\n");
  }

  // (e) three-system comparison --------------------------------------------
  bench::print_header("Ablation E",
                      "system comparison: pull vs push-pull vs DHT-assisted (500 nodes)");
  {
    util::Table table({"system", "continuity", "duplicates/delivered", "prefetch oh"});
    for (const auto& row : systems) {
      const auto& run = results[next++];
      const double dup_ratio =
          static_cast<double>(run.stats.duplicate_deliveries) /
          static_cast<double>(std::max<std::uint64_t>(run.stats.segments_delivered, 1));
      table.add_row({row.name, util::Table::num(run.stable_continuity, 3),
                     util::Table::num(dup_ratio, 3),
                     util::Table::num(run.prefetch_overhead, 4)});
      csv.add_row({"system", row.name, util::Table::num(run.stable_continuity, 4),
                   util::Table::num(dup_ratio, 4)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Expectation (paper Section 2): push-pull improves on pure pull but\n"
                "carries redundant transmissions; the DHT-assisted system reaches the\n"
                "highest continuity with bounded, targeted extra traffic.\n");
  }

  std::printf("\nCSV: ablations.csv\n");
  return 0;
}
