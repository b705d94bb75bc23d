// Section 5.1 table reproduction: theoretical PC_old / PC_new / delta
// for lambda = 14, 15 against full-simulation measurements with 1000
// nodes under homogeneous/heterogeneous bandwidth and static/dynamic
// churn — the exact grid of the paper's comparison table.

#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "analysis/continuity_model.hpp"
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

struct SimRow {
  const char* label;
  bool heterogeneous;
  bool churn;
};

}  // namespace

int main() {
  using namespace continu;

  bench::print_header("Section 5.1 table",
                      "theoretical vs simulated playback continuity (n = 1000)");

  util::Table table({"Environment", "PC_old", "PC_new", "delta"});
  util::CsvWriter csv("table1_theory_vs_sim.csv",
                      {"environment", "pc_old", "pc_new", "delta"});

  // Theoretical rows (p = 10, tau = 1 s, k = 4).
  for (const double lambda : {15.0, 14.0}) {
    analysis::ContinuityInputs in;
    in.lambda = lambda;
    const auto out = analysis::predict_continuity(in);
    char label[64];
    std::snprintf(label, sizeof label, "Theoretical result with lambda=%.0f", lambda);
    table.add_row({label, util::Table::num(out.pc_old, 4), util::Table::num(out.pc_new, 4),
                   util::Table::num(out.delta, 4)});
    csv.add_row({label, util::Table::num(out.pc_old, 4), util::Table::num(out.pc_new, 4),
                 util::Table::num(out.delta, 4)});
  }

  // Simulation rows: PC_new from ContinuStreaming, PC_old from the
  // CoolStreaming baseline on the identical substrate. All 8 sessions
  // run as one parallel batch.
  const auto snapshot = std::make_shared<const continu::trace::TraceSnapshot>(
      bench::standard_trace(1000, 101));
  const SimRow rows[] = {
      {"Homogeneous and static environment", false, false},
      {"Homogeneous and dynamic environment", false, true},
      {"Heterogeneous and static environment", true, false},
      {"Heterogeneous and dynamic environment", true, true},
  };
  std::vector<runner::ReplicationSpec> specs;
  for (const auto& row : rows) {
    auto config = bench::standard_config(77, row.churn);
    config.heterogeneous_bandwidth = row.heterogeneous;
    specs.push_back(bench::snapshot_spec(config, snapshot, "continu"));
    specs.push_back(bench::snapshot_spec(config.as_coolstreaming(), snapshot, "cool"));
  }
  const auto results = bench::run_batch(specs);
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& row = rows[i];
    const double pc_new = results[2 * i].stable_continuity;
    const double pc_old = results[2 * i + 1].stable_continuity;
    table.add_row({row.label, util::Table::num(pc_old, 4), util::Table::num(pc_new, 4),
                   util::Table::num(pc_new - pc_old, 4)});
    csv.add_row({row.label, util::Table::num(pc_old, 4), util::Table::num(pc_new, 4),
                 util::Table::num(pc_new - pc_old, 4)});
  }

  std::printf("%s", table.render().c_str());
  std::printf("\nPaper expectation: theory lambda=15 gives 0.8815 / 0.9989 / 0.1174;\n"
              "lambda=14 gives 0.8243 / 0.9975 / 0.1732. Simulated rows should\n"
              "bracket between/below the theory, with dynamic/heterogeneous rows a\n"
              "little lower. CSV: table1_theory_vs_sim.csv\n");
  return 0;
}
